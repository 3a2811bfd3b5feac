"""The supported API is the 15 names of ``spldavb.__all__``, and the demos
and the README use no other name from the package namespace."""

import ast
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

import spldavb

ROOT = Path(__file__).resolve().parent.parent
SUPPORTED = [
    "Dataset", "Hyperparams", "RunConfig", "RunReport", "SpldaModel",
    "SynthSpec", "clustering_metrics", "fileio", "generate", "marginal_params",
    "pairwise_llr", "run_adaptation", "split_dataset", "sweep_m",
    "train_supervised",
]


# Each demo and each python block of the README, by name.
SOURCES = {path.name: path.read_text()
           for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES.update(
    (f"README.md block {i}", block) for i, block in enumerate(re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)))


# One checked instance of each settings class.
SETTINGS = {cls.__name__: obj for cls, obj in (
    (spldavb.RunConfig, spldavb.RunConfig()),
    (spldavb.Hyperparams, spldavb.Hyperparams()),
    (spldavb.SynthSpec, spldavb.SynthSpec(d=2, n_y=1, m_true=1, per_speaker=1)))}


@pytest.mark.parametrize("name, field", [
    (name, f.name) for name, obj in SETTINGS.items() for f in fields(obj)])
def test_settings_cannot_be_assigned(name, field):
    # Their checks run when they are built: a later assignment would pass
    # an unchecked value to a run or a data set.
    obj = SETTINGS[name]
    with pytest.raises(FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


@pytest.mark.parametrize("name, field, value", [
    ("RunConfig", "variant", "bogus"),
    ("Hyperparams", "tau0", 0.0),
    ("SynthSpec", "per_speaker", 2.5)])
def test_replace_checks_again(name, field, value):
    with pytest.raises(ValueError, match=field):
        replace(SETTINGS[name], **{field: value})


def test_all_is_the_supported_api():
    assert sorted(spldavb.__all__) == SUPPORTED


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spldavb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == SUPPORTED


@pytest.mark.parametrize("name", SOURCES)
def test_documented_imports_are_supported(name):
    imported = {alias.name for node in ast.walk(ast.parse(SOURCES[name]))
                if isinstance(node, ast.ImportFrom) and node.module == "spldavb"
                for alias in node.names}
    assert imported, f"{name} imports nothing from spldavb"
    assert imported <= set(spldavb.__all__), sorted(imported - set(spldavb.__all__))
