"""The timing summary of ``tools/compare_runs.py``, loaded by path: the
tool is a script, not a module of the package."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

COMPARE_RUNS = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


def load_compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", COMPARE_RUNS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratio_interval_of_equal_passes_is_one():
    base = np.random.default_rng(0).uniform(1.0, 2.0, 10)
    assert load_compare_runs().ratio_interval(base, base.copy()) == (1.0, 1.0)


def test_ratio_interval_of_a_constant_ratio_is_that_ratio():
    base = np.random.default_rng(1).uniform(1.0, 2.0, 10)
    low, high = load_compare_runs().ratio_interval(base, 0.9 * base)
    assert low == pytest.approx(0.9, rel=1e-12)
    assert high == pytest.approx(0.9, rel=1e-12)


def test_ratio_interval_is_reproducible_and_brackets_the_median():
    rng = np.random.default_rng(2)
    base, head = rng.uniform(1.0, 2.0, (2, 10))
    ratio_interval = load_compare_runs().ratio_interval
    low, high = ratio_interval(base, head)
    assert ratio_interval(base, head) == (low, high)
    assert low <= np.median(head / base) <= high


def test_gain_is_claimed_only_when_every_interval_lies_below_one():
    gain_claimed = load_compare_runs().gain_claimed
    assert gain_claimed([(0.95, 0.98), (0.96, 0.99)])
    assert not gain_claimed([(0.95, 0.98), (0.97, 1.0)])
    assert not gain_claimed([(0.95, 0.98), (0.99, 1.02)])
