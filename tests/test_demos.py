"""Every name a demo imports from fdchange exists, so a removed or renamed
public name cannot silently break a demo."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def fdchange_imports(path):
    """(module, name) for each ``from fdchange[...] import name``; name None for ``import``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            if node.module.split(".")[0] == "fdchange":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fdchange":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_imported_names_exist(path):
    imports = list(fdchange_imports(path))
    assert imports, f"{path.name} imports nothing from fdchange"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name}"
