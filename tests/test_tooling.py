import ast
from pathlib import Path

import pytest

import wgflows

PACKAGE_DIR = Path(wgflows.__file__).resolve().parent


def scipy_linalg_uses(source: str) -> list[int]:
    """Line numbers where ``source`` imports or reaches ``scipy.linalg``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[:2] == ["scipy", "linalg"]
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["scipy", "linalg"] or (
                module == ["scipy"] and any(alias.name == "linalg" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "linalg"
                   and isinstance(node.value, ast.Name) and node.value.id == "scipy")
        if hit:
            lines.append(node.lineno)
    return lines


def test_package_never_uses_scipy_linalg():
    """No module of the package imports ``scipy.linalg``, so a solve runs on
    one BLAS thread pool.

    numpy and scipy each load their own OpenBLAS (``scipy_openblas64`` and
    ``scipy_openblas32``), and each pool's threads keep spinning for a while
    after a call, so every switch between the two makes one pool wait for
    the other's cores.  On a 2-core box (numpy 2.4, scipy 1.17) a 148 x 148
    ``cho_factor`` took 0.29 ms on its own and 99 ms right after a numpy
    matmul; a repeat measurement read 0.25 ms alone against a median of
    3.3 ms and a worst case of 46 ms right after an 8000 x 400 numpy Gram,
    and that Gram took 23 ms alone against 42 ms right after a scipy call.
    ``scipy.interpolate`` (the Hamiltonian flow's density reconstruction) is
    outside the solve and stays.
    """
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = {path.name: lines for path in modules
             if (lines := scipy_linalg_uses(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "import scipy.linalg",
    "import scipy.linalg as sla",
    "import scipy.linalg.lapack",
    "from scipy.linalg import cho_factor",
    "from scipy.linalg.lapack import dpstrf",
    "from scipy import interpolate, linalg",
    "import scipy\nscipy.linalg.eigh",
])
def test_scanner_finds_every_import_form(source):
    assert scipy_linalg_uses(source)


@pytest.mark.parametrize("source", [
    "import scipy",
    "from scipy.interpolate import PchipInterpolator",
    "import numpy as np\nnp.linalg.cholesky",
])
def test_scanner_ignores_other_modules(source):
    assert not scipy_linalg_uses(source)
