"""Every third-party package ``src/repro`` imports is a declared dependency.

``pip install -e .`` installs only ``[project].dependencies``; an import
that is not declared there works only where the package happens to be
installed already.  The check is static: it parses every module with
``ast`` (function-local imports included), keeps the top-level package of
each absolute import, and drops the standard library and ``repro`` itself.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def imported_packages():
    """``{top-level package: first module importing it}`` over ``src/repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def declared_dependencies():
    """Normalized distribution names in ``[project].dependencies``."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(re.sub(r"[-.]+", "_", name).lower())
    return names


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    missing = {
        package: module
        for package, module in imported_packages().items()
        if package.lower() not in declared
    }
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_scan_sees_the_numpy_users():
    # Guards the scan itself: an empty result would pass the check above.
    assert "numpy" in imported_packages()
