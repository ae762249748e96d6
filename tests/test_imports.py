"""Import hygiene of the package sources, checked on their syntax trees."""

import ast
import pathlib

import qelliptic

PACKAGE = pathlib.Path(qelliptic.__file__).parent


def _sources():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def _dunder_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _unused_imports(tree) -> list:
    """Names bound by an import and never read, in source order.  A name
    listed in ``__all__`` counts as read: the module re-exports it."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_dunder_all(tree))
    return [name for name in imported if name not in used]


def _defined(tree) -> set:
    """Names bound at module level by a definition or an assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_no_module_imports_a_name_it_never_uses():
    for name, tree in _sources():
        assert _unused_imports(tree) == [], name
    sample = ast.parse(
        "from __future__ import annotations\nimport itertools\nimport os.path\n"
        "from typing import Callable\nfrom .x import a as b, c\n"
        "__all__ = ['c']\nos.path.join(b)\n"
    )
    assert _unused_imports(sample) == ["itertools", "Callable"]


def test_submodule_all_lists_only_its_own_definitions():
    # the package __init__ re-exports the submodules' names, so it is exempt
    for name, tree in _sources():
        if name != "__init__.py":
            assert set(_dunder_all(tree)) <= _defined(tree), name
    sample = ast.parse("from .q import qpow\ndef f(): pass\nX = 1\n__all__ = ['f', 'X', 'qpow']\n")
    assert set(_dunder_all(sample)) - _defined(sample) == {"qpow"}
