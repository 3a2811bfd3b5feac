"""The benchmark's tracer wraps package functions by module attribute name,
so a refactor that drops or renames one makes every benchmark run fail.
This checks the names without importing the benchmark as a package."""

import importlib
import importlib.util
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def test_traced_names_are_module_attributes():
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    names = spantrace.SPANNED + spantrace.COUNTED
    missing = []
    for qual in names:
        module, _, attr = qual.partition(".")
        if not callable(getattr(importlib.import_module("spldavb." + module),
                                attr, None)):
            missing.append(qual)
    assert names and not missing
