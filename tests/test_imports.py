"""Every name a c2patch module, test or script imports is used there."""

import ast
import subprocess
import sys
from pathlib import Path

import c2patch

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for folder in ("src/c2patch", "tests", "scripts")
           for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_guard_detects_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == [(1, "os"), (2, "tau")]


def test_no_unused_imports():
    assert {path.parent.name for path in SOURCES} == {"c2patch", "tests", "scripts"}
    found = [f"{path.name}:{line} {name}" for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert not found, f"unused imports: {found}"


def test_package_import_does_not_load_scipy():
    # the BLAS pin finds scipy's OpenBLAS without importing scipy
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import c2patch; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(c2patch.__file__).parents[1])],
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_package_import_does_not_load_scipy_interpolate():
    # scipy.interpolate costs ~0.3 s and ~17 MB at start-up; it is used only
    # as an independent reference in the tests.  scipy.sparse.linalg is
    # used by no module: the solver applies its operators as functions
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import c2patch.cli, c2patch.assembly, c2patch.builtin; "
            "print(sorted(m for m in ('scipy.interpolate', "
            "'scipy.sparse.linalg') if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(c2patch.__file__).parents[1])],
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_scipy_linalg_or_sparse():
    # they cost ~0.25 s at start-up; fit, table2 and the banded solve of
    # SplineSpace1D.interpolate import them when they run
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import c2patch.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') "
            "if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(c2patch.__file__).parents[1])],
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
