"""Every library module uses each name it imports.

A check with the stdlib ``ast`` module only: a name counts as used when
it appears as a name node anywhere in the module.  Quoted annotations
are strings to ``ast``, so a name used only there counts as unused;
every module has ``from __future__ import annotations`` and needs no
quotes.  ``__init__.py`` is skipped, because its imports are the
package's public names.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wirebox"


def unused_imports(path: pathlib.Path) -> list[str]:
    """``module: name`` for each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}: {name}" for name in imported if name not in used]


def test_library_modules_use_every_name_they_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []
