"""Every module-level import in ``src/repro`` is read by its module.

An import the module never reads is dead weight: it costs import time, hides
the module's real dependencies and can keep a deleted helper looking used.
A name listed in the module's ``__all__`` counts as read (it is re-exported),
and ``from __future__`` imports are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def unused_imports(source: str):
    """``(line, name)`` of each top-level import binding the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    yield node.lineno, name


def test_unused_imports_detects_a_dead_name():
    source = "from __future__ import annotations\nimport os, sys\nprint(sys)\n"
    assert list(unused_imports(source)) == [(2, "os")]
    assert list(unused_imports("import os\n__all__ = ['os']\n")) == []


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused module-level imports:\n" + "\n".join(found)
