import ast
import contextlib
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wgflows
from wgflows import cli, flows, mesh
from wgflows.estimator import EstimationProblem

PACKAGE_DIR = Path(wgflows.__file__).resolve().parent
PYPROJECT = PACKAGE_DIR.parents[1] / "pyproject.toml"
README = PACKAGE_DIR.parents[1] / "README.md"
BENCH_DIR = PACKAGE_DIR.parents[1] / "perfbench"
TESTS_DIR = Path(__file__).resolve().parent


def scipy_uses(source: str) -> list[int]:
    """Line numbers where ``source`` imports or reaches ``scipy`` or any of
    its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and (node.module or "").split(".")[0] == "scipy"
        else:
            hit = (isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "scipy")
        if hit:
            lines.append(node.lineno)
    return lines


def test_package_never_uses_scipy():
    """No module of the package imports ``scipy``, so the package runs on
    numpy alone: one BLAS thread pool and no second OpenBLAS mapped.

    numpy and scipy each load their own OpenBLAS (``scipy_openblas64`` and
    ``scipy_openblas32``), and each pool's threads keep spinning for a while
    after a call, so every switch between the two makes one pool wait for
    the other's cores.  On a 2-core box (numpy 2.4, scipy 1.17) a 148 x 148
    ``cho_factor`` took 0.29 ms on its own and 99 ms right after a numpy
    matmul; a repeat measurement read 0.25 ms alone against a median of
    3.3 ms and a worst case of 46 ms right after an 8000 x 400 numpy Gram,
    and that Gram took 23 ms alone against 42 ms right after a scipy call.
    Importing ``scipy.interpolate`` alone took about 0.5 s and 50 MB of RSS
    on the same box.  scipy is a test extra, for reference solutions only.
    """
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = {path.name: lines for path in modules
             if (lines := scipy_uses(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "import scipy",
    "import scipy.linalg",
    "import scipy.linalg as sla",
    "import scipy.linalg.lapack",
    "import numpy, scipy.sparse",
    "from scipy.linalg import cho_factor",
    "from scipy.linalg.lapack import dpstrf",
    "from scipy import interpolate, linalg",
    "from scipy.interpolate import PchipInterpolator",
    "import scipy\nscipy.linalg.eigh",
])
def test_scanner_finds_every_import_form(source):
    assert scipy_uses(source)


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.cholesky",
    "import scipyish",
    "from .scipy import helper",
    "spec.scipy",
])
def test_scanner_ignores_other_modules(source):
    assert not scipy_uses(source)


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but never reads or lists in ``__all__``
    (``from __future__`` imports are directives, not names)."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_package_has_no_unused_imports():
    """Every name a module of the package or of the tests imports is used
    or re-exported."""
    modules = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    assert modules
    found = {f"{path.parent.name}/{path.name}": names for path in modules
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source, unused", [
    ("import os", ["os"]),
    ("import os.path", ["os"]),
    ("import numpy as np", ["np"]),
    ("from .flows import FlowState, NONE\nNONE", ["FlowState"]),
    ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass", ["field"]),
    ("import numpy as np\nnp.zeros(3)", []),
    ("import os.path\nos.path.join", []),
    ("from .rkhs import rkhs_norm\n__all__ = ['rkhs_norm']", []),
    ("from __future__ import annotations", []),
    ("from .mesh import PERIODIC\ndef f(mode=PERIODIC): pass", []),
])
def test_unused_import_scanner(source, unused):
    assert unused_imports(source) == unused


def definitions_and_names(sources: list[str]) -> tuple[set, set]:
    """The functions, methods and classes that ``sources`` define, and the
    names that a ``Name`` or ``Attribute`` in them reads."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private (``_``-prefixed, non-dunder) functions, methods and classes
    that ``sources`` define but never name: no ``Name`` or ``Attribute`` in
    any of them reads the name, so nothing in those sources reaches it."""
    defined, named = definitions_and_names(sources)
    return sorted(name for name in defined - named
                  if name.startswith("_") and not (name.startswith("__")
                                                   and name.endswith("__")))


def test_package_reaches_every_private_helper():
    """Every private function, method and class of the package is named
    somewhere in the package: a helper that only tests call, or that a
    rewrite left behind, is caught here."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    assert unreferenced_private_names(
        [path.read_text(encoding="utf-8") for path in modules]) == []


@pytest.mark.parametrize("sources, unreferenced", [
    (["def _helper(): pass"], ["_helper"]),
    (["def _helper(): pass\n_helper()"], []),
    (["def _helper(): pass", "from .a import _helper\n_helper()"], []),
    (["def _helper(): pass", "from .a import _helper"], ["_helper"]),
    (["class _Record: pass"], ["_Record"]),
    (["class A:\n    def _rows(self): pass"], ["_rows"]),
    (["class A:\n    def _rows(self): pass\n    def f(self): return self._rows()"], []),
    (["class A:\n    def __init__(self): pass"], []),
    (["def _f(): pass\nTABLE = {'f': _f}"], []),
    (["def public(): pass"], []),
])
def test_private_name_scanner(sources, unreferenced):
    assert unreferenced_private_names(sources) == unreferenced


def unreached_public_names(sources: list[str], readers: list[str],
                           exported: list[str]) -> list[str]:
    """Public functions, methods and classes that ``sources`` define but
    that no ``Name`` or ``Attribute`` in ``sources`` or ``readers`` reads and
    ``exported`` does not list."""
    defined, named = definitions_and_names(sources)
    named |= definitions_and_names(readers)[1] | set(exported)
    return sorted(name for name in defined - named if not name.startswith("_"))


def test_package_reaches_every_public_name():
    """Every public function, method and class of the package is named in
    the package or in the benchmark's modules, or exported in
    ``wgflows.__all__``: a public name that only tests reach is a test-only
    helper in the package, and one that nothing reaches is dead code."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    bench = sorted(BENCH_DIR.glob("*.py"))
    assert modules and bench
    assert unreached_public_names([path.read_text(encoding="utf-8") for path in modules],
                                  [path.read_text(encoding="utf-8") for path in bench],
                                  wgflows.__all__) == []


@pytest.mark.parametrize("sources, readers, exported, unreached", [
    (["def helper(): pass"], [], [], ["helper"]),
    (["def helper(): pass\nhelper()"], [], [], []),
    (["def helper(): pass", "from .a import helper\nhelper()"], [], [], []),
    (["def helper(): pass"], ["from wgflows.a import helper\nhelper()"], [], []),
    (["def helper(): pass"], ["import wgflows.a\nwgflows.a.helper()"], [], []),
    (["def helper(): pass"], ["PATCH = 'a.helper'"], [], ["helper"]),
    (["class Kernel: pass"], [], ["Kernel"], []),
    (["class A:\n    def rows(self): pass\nA()"], [], [], ["rows"]),
    (["class A:\n    def rows(self): pass\nA().rows()"], [], [], []),
    (["class A:\n    def __init__(self): pass\nA()"], [], [], []),
    (["def _helper(): pass"], [], [], []),
])
def test_public_name_scanner(sources, readers, exported, unreached):
    assert unreached_public_names(sources, readers, exported) == unreached


def unset_fields(sources: list[str], name: str, fields: list[str]) -> list[str]:
    """The ``fields`` (in order) that no call of ``name`` in ``sources``, as
    a bare name or an attribute, sets by position or by keyword."""
    set_by_calls = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == name):
                set_by_calls |= set(fields[:len(node.args)])
                set_by_calls |= {kw.arg for kw in node.keywords}
    return [field for field in fields if field not in set_by_calls]


def test_every_problem_field_has_a_caller():
    """Every field of ``estimator.EstimationProblem`` is set by some call in
    the package or in the benchmark's modules: an option that only tests
    set is a test-only branch in the solver."""
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))]
    fields = [f.name for f in dataclasses.fields(EstimationProblem)]
    assert unset_fields(sources, "EstimationProblem", fields) == []


@pytest.mark.parametrize("sources, unset", [
    (["EstimationProblem(t, k1, k2)"], ["lam"]),
    (["EstimationProblem(t, k1, k2, lam=1.0)"], []),
    (["EstimationProblem(t, k1)", "estimator.EstimationProblem(t, k2=k, lam=0.1)"], []),
    (["EstimationProblem(traj=t, k1=k)"], ["k2", "lam"]),
    (["Other(t, k1, k2, lam=1.0)"], ["traj", "k1", "k2", "lam"]),
    (["EstimationProblem"], ["traj", "k1", "k2", "lam"]),
])
def test_unset_field_scanner(sources, unset):
    assert unset_fields(sources, "EstimationProblem", ["traj", "k1", "k2", "lam"]) == unset


# calls that check the spec values they are given
SPEC_CHECKERS = ("config_value", "config_list", "config_value_or_list")


def bare_config_casts(source: str) -> list[int]:
    """Line numbers of ``int``/``float``/``bool``/``tuple``/``list`` calls in
    ``source`` whose argument is a config lookup (a subscript, a
    ``.get(...)`` or a ``require(...)`` call): a config value converted
    without a type check.  Also of any call but a ``SPEC_CHECKERS`` one
    that takes a value of a function or density spec (``spec.get(...)`` or
    ``require(spec, ...)``) as an argument, and of any call at all that
    takes a ``spec[...]`` (a missing key raises ``KeyError``): a spec value
    handed to a constructor, and on to numpy, unchecked."""
    def read(arg):
        return isinstance(arg, ast.Subscript) or (
            isinstance(arg, ast.Call) and (
                isinstance(arg.func, ast.Attribute) and arg.func.attr == "get"
                or isinstance(arg.func, ast.Name) and arg.func.id == "require"))

    def is_spec(node):
        return isinstance(node, ast.Name) and node.id == "spec"

    def spec_read(arg):
        if isinstance(arg, ast.Subscript):
            return is_spec(arg.value)
        return isinstance(arg, ast.Call) and (
            isinstance(arg.func, ast.Attribute) and arg.func.attr == "get"
            and is_spec(arg.func.value)
            or isinstance(arg.func, ast.Name) and arg.func.id == "require"
            and bool(arg.args) and is_spec(arg.args[0]))

    def name(call):
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return sorted(
        [node.lineno for node in calls
         if isinstance(node.func, ast.Name)
         and node.func.id in ("int", "float", "bool", "tuple", "list")
         and any(map(read, node.args))]
        + [node.lineno for node in calls
           if any(spec_read(arg) and (isinstance(arg, ast.Subscript)
                                      or name(node) not in SPEC_CHECKERS)
                  for arg in node.args + [kw.value for kw in node.keywords])])


def test_cli_converts_no_config_value_bare():
    """Every number and boolean the CLI reads from a config, and every value
    of a function or density spec, passes through ``cli.config_value`` (or
    ``config_list``), so a wrong type exits 2 and is never truncated."""
    assert bare_config_casts((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    'int(cfg["N"])',
    'float(cfg.get("alpha", 1.0))',
    'bool(cfg.get("periodic"))',
    'float(spec["mesh"]["a"])',
    'xs = [int(spec["N"]) for spec in specs]',
    'f(lo=float(grid_cfg.get("min", mesh.a)))',
    'N_list = tuple(require(cfg, "N_list"))',
    'window = tuple(cfg.get("window", (0.0, 1.0)))',
    'list(spec["centers"])',
    'int(require(cfg, "N"))',
    'bump_density(x, spec.get("center", 0.5), sigma=spec["sigma"])',
    'SmoothKernel.from_config(spec["kernel"])',
    'SmoothKernel.from_config(require(spec, "kernel"))',
])
def test_cast_scanner_finds_bare_casts(source):
    assert bare_config_casts(source)


@pytest.mark.parametrize("source", [
    "int(result.C1.size)",
    "float(np.max(values))",
    "float(x)",
    'config_value(cfg, "N", int)',
    'kind(cfg["N"])',
    'int(len(cfg["N_list"]))',
    'str(cfg.get("u"))',
    "list(columns)",
    'tuple(config_list(cfg, "N_list", int))',
    'wrap_periodic(fn, config_value(spec, "wrap_period", float), '
    'kernel_from_config(config_value(spec, "kernel", dict)), rows=cfg.get("rows"))',
])
def test_cast_scanner_ignores_other_calls(source):
    assert not bare_config_casts(source)


# the CLI functions that may see the parsed flags
ARGS_READERS = ("load_config", "main", "build_parser")


def args_readers(source: str) -> list[str]:
    """Functions in ``source`` other than ``ARGS_READERS`` that read the
    name ``args`` or take a parameter of that name: a second path from a
    flag to a command, past the merged config."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in ARGS_READERS
        and any(isinstance(inner, ast.Name) and inner.id == "args"
                or isinstance(inner, ast.arg) and inner.arg == "args"
                for inner in ast.walk(node)))


def test_cli_reads_flags_once():
    """Only ``load_config`` (which merges the flags into the config),
    ``main`` and ``build_parser`` see the parsed flags; every command reads
    its inputs from the merged config, which its manifest records."""
    assert args_readers((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, readers", [
    ("def cmd_w2(args):\n    return args.rho", ["cmd_w2"]),
    ("def cmd_w2(cfg, seed):\n    return args.rho or cfg['rho']", ["cmd_w2"]),
    ("def helper(*args):\n    pass", ["helper"]),
    ("def main(argv):\n    def run(cfg):\n        return args.func(cfg)", ["run"]),
    ("def main(argv):\n    args = parse(argv)\n    return args.func(load_config(args))", []),
    ("def load_config(args):\n    return vars(args)", []),
    ("def cmd_w2(cfg, seed):\n    return cfg['args'], exc.args", []),
])
def test_args_scanner(source, readers):
    assert args_readers(source) == readers


def test_cli_import_loads_no_scipy():
    """Importing the CLI (and with it every module of the package) leaves no
    ``scipy`` module in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, wgflows.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_only():
    """``[project] dependencies`` in pyproject.toml (its only key of that
    name) lists numpy alone."""
    text = PYPROJECT.read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)) == ["numpy"]


def unnamed_values(text: str, values) -> list[str]:
    """The ``values`` (in order) that ``text`` never writes in backquotes."""
    return [value for value in values if f"`{value}`" not in text]


def test_readme_names_every_accepted_value():
    """README names, in backquotes, every value the readers accept for a
    sidecar's ``boundary_mode`` (``mesh.BOUNDARY_MODES``) and for a
    ``scheme`` (``flows.SCHEMES``), so its exit-2 rules quote values that
    run, and every retired config key (``cli.RETIRED_KEYS``), so a key is
    not retired without telling its users."""
    text = README.read_text(encoding="utf-8")
    assert unnamed_values(text, mesh.BOUNDARY_MODES + flows.SCHEMES
                          + tuple(cli.RETIRED_KEYS)) == []


@pytest.mark.parametrize("text, unnamed", [
    ("`periodic` or `paper-truncated`", []),
    ("`periodic` or `truncated`", ["paper-truncated"]),
    ("periodic or paper-truncated", ["periodic", "paper-truncated"]),
])
def test_unnamed_value_scanner(text, unnamed):
    assert unnamed_values(text, ("periodic", "paper-truncated")) == unnamed


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    """One iteration of each benchmark workload (``perfbench/workloads.py``,
    imported, not changed) passes the workload's own checks, so a change to
    the package that breaks them fails here and not only at benchmark
    time."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # nothing lands in perfbench/
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, workload_class in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_class(1, workdir)
        workload.make_inputs()
        workload.prepare()
        outcome = workload.check(workload.run(lambda *args, **kwargs: contextlib.nullcontext()))
        assert outcome.attempted > 0
        assert outcome.failed == 0, (name, outcome.problems)
