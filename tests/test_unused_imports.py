"""No module of the package, the tools or the tests imports a name it
never uses; a name listed in the module's ``__all__`` counts as used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/spldavb", "tools", "tests")


def unused_imports(source):
    """The names that ``source`` binds by an import and never reads."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_finds_them():
    source = "import os, json\nimport a.b\nfrom x import y as z, w\n" \
             "__all__ = ['w']\nos.getcwd(); a.b.c()\n"
    assert unused_imports(source) == [(1, "json"), (3, "z")]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for folder in DIRS for path in sorted((ROOT / folder).glob("*.py"))
              for line, name in unused_imports(path.read_text())]
    assert unused == []
