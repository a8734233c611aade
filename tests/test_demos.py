"""Every name a demo imports from the package exists.

The demos are not run here, which would add tens of seconds to the suite;
resolving their imports catches what an API deletion breaks.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE = "dihedral_erw"


def package_imports(path):
    """(module, name) for each package import in a file; name is None for `import x`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == PACKAGE:
                for alias in node.names:
                    yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = []
    for module, name in package_imports(path):
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names the package does not have: {missing}"
