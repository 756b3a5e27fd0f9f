"""Every name a demo imports from fdchange exists, and every call a demo makes
to one binds to its signature, so a removed or renamed public name, or a
removed keyword, cannot silently break a demo."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def fdchange_imports(tree):
    """(local name, module, name) for each ``from fdchange[...] import name``;
    name None for ``import fdchange[...]``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            if node.module.split(".")[0] == "fdchange":
                for alias in node.names:
                    yield alias.asname or alias.name, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fdchange":
                    yield alias.asname or alias.name, alias.name, None


def fdchange_calls(tree, bound):
    """(call node, callee) for each call of a name ``bound`` maps to an fdchange object."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = bound.get(node.func.id)
            if callable(callee) and not inspect.ismodule(callee):
                yield node, callee


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_imported_names_exist(path):
    imports = list(fdchange_imports(parse(path)))
    assert imports, f"{path.name} imports nothing from fdchange"
    for _, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_calls_bind_to_signatures(path):
    tree = parse(path)
    bound = {}
    for local, module_name, name in fdchange_imports(tree):
        module = importlib.import_module(module_name)
        bound[local] = module if name is None else getattr(module, name)
    calls = list(fdchange_calls(tree, bound))
    assert calls, f"{path.name} calls nothing it imports from fdchange"
    for node, callee in calls:
        positional = [None] * len(node.args)
        keywords = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(callee).bind_partial(*positional, **keywords)
        except TypeError as exc:
            pytest.fail(f"{path.name} line {node.lineno}: {callee.__name__}: {exc}")
