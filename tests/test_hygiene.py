"""Source hygiene: no imported name left unused, no function local or record
field left unread, and a numpy floor the library runs on.

A static scan with `ast` over the library and the test modules.  An import
counts as used when its bound name is read anywhere in the module (or listed
in `__all__`); a function local counts as read when any code inside the
function, nested closures included, loads it.  Names starting with an
underscore are deliberate placeholders and are skipped.  A dataclass field of
the library counts as read when some `.field` load outside its own class's
`__post_init__` names it, in the library, the tests or the benchmark; the
match is by attribute name alone, so a read of the same name on another
class counts too.  The library may not use `@`, `dot`, `matmul`, `inner`,
`tensordot` or `einsum_path`, nor pass `einsum` an `optimize` other than a
literal `False` (or a `**` mapping that could carry one): they reach BLAS,
`einsum`'s optimized path through `tensordot`, and BLAS reductions round
differently with the thread count; outputs must not depend on it.  Nor may
it memoize with `functools.lru_cache` or `functools.cache`: a memo that
outlives one operation would speed up repeated calls in one process but
not a one-shot CLI run, and would hold its arrays for the life of the
process.  And only
`fileio.py` may hold a round-trip float format or call `np.savetxt`: the
library has one CSV writer.  And only `tail_profile.bisect` may halve a
bracket in a `while` loop: the library has one root finder.  And only
`grid_signal` may name `_chirp_setup` or `_chirp_apply`: the library has
one chirp-z entry point, `_chirp_sums`.  And only `regularization` may
import `threading` or `concurrent`: the sweep's helper thread is the
library's one place that runs work concurrently.  And only `commands` may
import `ctypes` or name `mallopt`: a command's manifest is the one place
that sets the heap policy.  And the library may not
take numpy's `outer` product: a phase table of points times samples is a
direct sum beside `fourier_at`'s two evaluators.  Nor may it reach LAPACK
(`polyfit`, `lstsq`, any `linalg`), whose results may move with the thread
count.  And every public function
and method of the library must be reachable from `cli.main` or from code
that runs at import: library code only tests call is a claim no command
makes, so it gets a command caller or moves to the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "deconv").glob("*.py"))
SOURCES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*SOURCES, *(ROOT / "perfbench").glob("*.py")])


def _loaded(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unused_imports(tree: ast.Module) -> list:
    used = _loaded(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"line {node.lineno}: import {name}")
    return unused


def _own_stores(func) -> dict:
    """Names the function itself assigns (nested defs keep their own)."""
    stores = {}
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                stores[name] = None
        todo.extend(ast.iter_child_nodes(node))
    return {k: v for k, v in stores.items() if v is not None}


def _unread_locals(tree: ast.Module) -> list:
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = _loaded(func)
        loaded |= {n.target.id for n in ast.walk(func)
                   if isinstance(n, ast.AugAssign)
                   and isinstance(n.target, ast.Name)}
        for name, line in _own_stores(func).items():
            if not name.startswith("_") and name not in loaded:
                unread.append(f"line {line}: {func.name}.{name}")
    return unread


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports_or_unread_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = _unused_imports(tree) + _unread_locals(tree)
    assert problems == [], f"{path.name}: {problems}"


def _attribute_loads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in READERS}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    unread = []
    for path in LIBRARY:
        for cls in ast.walk(trees[path]):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = Counter()
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                    own += _attribute_loads(node)
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    name = node.target.id
                    if loads[name] - own[name] <= 0:
                        unread.append(f"{path.name}: {cls.name}.{name}")
    assert unread == [], unread


BLAS_PRODUCTS = {"dot", "matmul", "inner", "tensordot", "einsum_path"}


def _optimized_einsum(node: ast.AST) -> bool:
    """An `einsum` call whose `optimize` is not literally False."""
    func = getattr(node, "func", None)
    if getattr(func, "attr", getattr(func, "id", None)) != "einsum":
        return False
    return any(kw.arg is None or (kw.arg == "optimize" and not (
        isinstance(kw.value, ast.Constant) and kw.value.value is False))
        for kw in node.keywords)


def _matrix_products(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and any(a.name in BLAS_PRODUCTS for a in node.names)):
            found.append(f"line {node.lineno}: import")
        elif isinstance(node, ast.Call) and _optimized_einsum(node):
            found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


def test_matrix_product_scan_sees_every_form():
    code = ("x = a @ b\nx @= b\ny = np.dot(a, b)\nz = a.dot(b)\n"
            "w = np.matmul(a, b)\nv = np.inner(a, b)\n"
            "from numpy import inner\n"
            "u = np.tensordot(a, b, 1)\nfrom numpy import tensordot\n"
            "p = np.einsum_path('ij,jk', a, b)\n"
            "from numpy import einsum_path as ep\n"
            "e = np.einsum('ij,jk', a, b, optimize=True)\n"
            "f = np.einsum('ij,jk', a, b, optimize='greedy')\n"
            "g = einsum('ij,jk', a, b, optimize=flag)\n"
            "h = np.einsum('ij,jk', a, b, optimize=0)\n"
            "k = np.einsum('ij,jk', a, b, **options)\n")
    assert len(_matrix_products(ast.parse(code))) == 16
    assert _matrix_products(ast.parse(
        "@decorator\ndef f(): pass\n"
        "e = np.einsum('ij,jk->ik', a, b)\n"
        "f = np.einsum('m...,bm->b...', a, b, optimize=False)\n"
        "g = einsum('ii', a, out=o)\ny = np.tensor(a)\n")) == []


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_has_no_matrix_product(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _matrix_products(tree) == [], path.name


MEMOS = {"lru_cache", "cache"}


def _memos(tree: ast.Module) -> list:
    modules = {"functools"} | {a.asname for node in ast.walk(tree)
                               if isinstance(node, ast.Import)
                               for a in node.names
                               if a.name == "functools" and a.asname}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in MEMOS
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"line {node.lineno}: functools.{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
              and any(a.name in MEMOS for a in node.names)):
            found.append(f"line {node.lineno}: import")
    return found


def test_memo_scan_sees_every_form():
    code = ("import functools\n@functools.lru_cache(maxsize=None)\n"
            "def f(): pass\n@functools.cache\ndef g(): pass\n"
            "from functools import lru_cache\n"
            "from functools import cache as memo\n"
            "import functools as ft\nh = ft.cache(f)\n")
    assert len(_memos(ast.parse(code))) == 5
    assert _memos(ast.parse("import functools\n"
                            "h = functools.partial(f)\nx.cache = 1\n")) == []


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_keeps_no_memo(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _memos(tree) == [], path.name


# One CSV writer: `fileio.write_csv` owns the float format.  A round-trip
# `%.17g`-style format (precision 15 or more, as `%`, `{:.17g}`, f-string
# or `format` spec) or `np.savetxt` anywhere else in the library is a
# second writer; short formats such as `{:.3f}` in messages are not.
FLOAT_FORMAT = re.compile(
    r"(?:%|(?:^|:))[-+ #0]*\d*\.(?:1[5-9]|[2-9]\d)[eEfFgG]")


def _second_writers(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and FLOAT_FORMAT.search(node.value)):
            found.append(f"line {node.lineno}: {node.value!r}")
        elif ((isinstance(node, ast.Attribute) and node.attr == "savetxt")
              or (isinstance(node, ast.ImportFrom)
                  and any(a.name == "savetxt" for a in node.names))):
            found.append(f"line {node.lineno}: savetxt")
    return found


def test_second_writer_scan_sees_every_form():
    code = ("a = '%.17g' % x\nb = '{:.17g}'.format(x)\nc = f'{x:.17g}'\n"
            "d = format(x, '.17g')\ne = '%-24.17e' % x\nnp.savetxt(p, x)\n"
            "from numpy import savetxt\n")
    assert len(_second_writers(ast.parse(code))) == 7
    assert _second_writers(ast.parse(
        "a = '%d rows' % n\nb = f'{x:.3f}'\nc = '%.6g' % x\n"
        "d = 'v1.17e'\n")) == []


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "fileio.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_has_one_csv_writer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _second_writers(tree) == [], path.name


# One root finder: `tail_profile.bisect` halves every bracket, scalar or
# batched.  A `while` loop elsewhere that assigns a midpoint
# `0.5 * (x + y)` or `(x + y) / 2` is a second one.
ROOT_FINDERS = {"tail_profile.py": {"bisect"}}


def _is_midpoint(node: ast.AST) -> bool:
    if not isinstance(node, ast.BinOp):
        return False
    sides = (node.left, node.right)
    if isinstance(node.op, ast.Mult):
        return (any(isinstance(x, ast.Constant) and x.value == 0.5
                    for x in sides)
                and any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Add)
                        for x in sides))
    return (isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _midpoint_loops(tree: ast.Module, allowed=frozenset()) -> list:
    exempt = {id(loop) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name in allowed
              for loop in ast.walk(func) if isinstance(loop, ast.While)}
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While) or id(loop) in exempt:
            continue
        for node in ast.walk(loop):
            if (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                  ast.NamedExpr))
                    and node.value is not None
                    and any(_is_midpoint(x) for x in ast.walk(node.value))):
                found.append(f"line {node.lineno}: midpoint in a while loop")
    return found


def test_midpoint_loop_scan_sees_every_form():
    code = ("def crossings(a, b, live):\n"
            "    while live.size:\n"
            "        mid = 0.5 * (a[live] + b[live])\n"
            "        live = live[1:]\n"
            "    while a < b:\n"
            "        a, m = a + 1, (a + b) / 2\n"
            "        if (c := (a + b) * 0.5) > 1:\n"
            "            b -= 0.5 * (b + a)\n")
    assert len(_midpoint_loops(ast.parse(code))) == 4
    bisect = code.replace("crossings", "bisect")
    assert _midpoint_loops(ast.parse(bisect), {"bisect"}) == []
    assert _midpoint_loops(ast.parse(
        "mid = 0.5 * (a + b)\nwhile a < b:\n    a = 0.5 * (a - b)\n"
        "    b = (a + b) / 3\n")) == []


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_has_one_root_finder(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = ROOT_FINDERS.get(path.name, frozenset())
    assert _midpoint_loops(tree, allowed) == [], path.name


# One chirp-z entry point: outside `grid_signal` every chirp-z transform
# goes through `_chirp_sums`, which knows the row scope's held setups.
# Naming `_chirp_setup` or `_chirp_apply` anywhere else builds or applies a
# setup behind the scope's back.
CHIRP_INTERNALS = {"_chirp_setup", "_chirp_apply"}


def _chirp_internals(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        names = ({a.name for a in node.names}
                 if isinstance(node, ast.ImportFrom)
                 else {getattr(node, "id", None), getattr(node, "attr", None)})
        hit = sorted(names & CHIRP_INTERNALS)
        if hit:
            found.append(f"line {node.lineno}: {hit}")
    return found


def test_chirp_internal_scan_sees_every_form():
    code = ("from .grid_signal import _chirp_setup\n"
            "from . import grid_signal as gs\n"
            "s = gs._chirp_setup(0.0, 1.0, 3, 1.0, 0.0, 1.0, 3)\n"
            "y = gs._chirp_apply(s, w)\nf = _chirp_apply\n")
    assert len(_chirp_internals(ast.parse(code))) == 4
    assert _chirp_internals(ast.parse(
        "from .grid_signal import _chirp_sums\n"
        "y = _chirp_sums(0.0, 1.0, 3, 1.0, 0.0, 1.0, w)\n")) == []


@pytest.mark.parametrize("path", [p for p in LIBRARY
                                  if p.name != "grid_signal.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_has_one_chirp_entry_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _chirp_internals(tree) == [], path.name


# One place that runs threads: `regularization.run_sweep` and its helper.
# Importing `threading`, `_thread` or `concurrent` (any submodule, any
# alias, or by name through `__import__` / `importlib.import_module`)
# anywhere else in the library is a second one.
THREAD_MODULES = {"threading", "_thread", "concurrent"}
THREAD_OWNERS = {"regularization.py"}


def _module_imports(tree: ast.Module, modules=THREAD_MODULES) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        hit = sorted({str(n).split(".")[0] for n in names} & modules)
        if hit:
            found.append(f"line {node.lineno}: {hit}")
    return found


def test_thread_import_scan_sees_every_form():
    code = ("import threading\nimport concurrent.futures as cf\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "from concurrent import futures\nimport os, _thread\n"
            "from threading import Thread as T\n"
            "m = __import__('threading')\n"
            "n = importlib.import_module('concurrent.futures')\n")
    assert len(_module_imports(ast.parse(code))) == 8
    assert _module_imports(ast.parse(
        "import os\nfrom . import threads\nfrom .threading import x\n"
        "import threadpoolctl\nn = importlib.import_module('json')\n"
        "threading = 1\nx = os.sched_getaffinity(0)\n")) == []
    owner = (ROOT / "src" / "deconv" / "regularization.py").read_text(
        encoding="utf-8")
    assert len(_module_imports(ast.parse(owner))) == 1


@pytest.mark.parametrize("path", [p for p in LIBRARY
                                  if p.name not in THREAD_OWNERS],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_runs_threads_in_one_place(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _module_imports(tree) == [], path.name


# One place that changes process state: a command's manifest pins the heap
# policy through `ctypes`, so importing the library changes nothing.
@pytest.mark.parametrize("path", [p for p in LIBRARY
                                  if p.name != "commands.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_loads_ctypes_in_one_place(path):
    text = path.read_text(encoding="utf-8")
    assert _module_imports(ast.parse(text), {"ctypes"}) == [], path.name
    assert "mallopt" not in text, path.name


def test_numpy_floor_has_the_fft_out_argument():
    # grid_signal passes out= to np.fft.fft and np.fft.ifft, which numpy
    # added in 2.0.0; read as text, since tomllib needs Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=([0-9.]+)"', text)
    assert floor, "pyproject.toml declares no numpy floor"
    assert tuple(int(v) for v in floor[1].split(".")) >= (2, 0), floor[0]


# One arbitrary-point evaluator: `fourier_at` sends every point set that is
# no progression to `laplace_parts`.  numpy's `outer` (`np.outer`,
# `numpy.outer`, `np.linalg.outer`, any alias, or imported by name) builds
# the points-by-samples phase table of the direct O(N*M) sum it replaced;
# a ufunc's `.outer`, such as `np.multiply.outer`, is not numpy's.
NUMPY_OUTER_MODULES = {"numpy", "numpy.linalg"}


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _numpy_outers(tree: ast.Module) -> list:
    aliases = {"np": "numpy", "numpy": "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name in NUMPY_OUTER_MODULES})
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "outer":
            head, _, rest = _dotted(node.value).partition(".")
            module = ".".join(filter(None, (aliases.get(head), rest)))
            if module in NUMPY_OUTER_MODULES:
                found.append(f"line {node.lineno}: {module}.outer")
        elif (isinstance(node, ast.ImportFrom)
              and node.module in NUMPY_OUTER_MODULES
              and any(a.name == "outer" for a in node.names)):
            found.append(f"line {node.lineno}: import")
    return found


def test_numpy_outer_scan_sees_every_form():
    code = ("p = np.outer(x, t)\nq = numpy.outer(x, t)\n"
            "from numpy import outer\nfrom numpy import outer as o\n"
            "import numpy as xp\nr = xp.outer(x, t)\n"
            "s = np.linalg.outer(x, t)\nfrom numpy.linalg import outer\n"
            "import numpy.linalg as la\nu = la.outer(x, t)\n")
    assert len(_numpy_outers(ast.parse(code))) == 8
    assert _numpy_outers(ast.parse(
        "p = np.multiply.outer(a, b)\nq = np.add.outer(a, b)\n"
        "r = x.outer\nfrom numpy import outer_sum\nouter = 1\n"
        "from numpy import multiply\nu = multiply.outer(a, b)\n")) == []
    parent_loop = ("for start in range(0, m, rows):\n"
                   "    phase = np.outer(pts[start:start + rows], sign * t)\n")
    assert _numpy_outers(ast.parse(parent_loop)) == ["line 2: numpy.outer"]


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_has_one_arbitrary_point_evaluator(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _numpy_outers(tree) == [], path.name


# No LAPACK: its solvers block and pivot through the BLAS they are linked
# with, so their results may move with the thread count, and no output may.
# `polyfit` (numpy's and numpy.polynomial's) and `lstsq` call its least
# squares; every routine under a `linalg` module (numpy's, scipy's) is its
# front end.  Named as an attribute or imported (by name, as a module, or
# through `__import__` / `importlib.import_module`), any alias included.
LAPACK_NAMES = {"polyfit", "lstsq", "linalg"}


def _lapack_entries(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAPACK_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(set(n.split(".")) & LAPACK_NAMES for n in names):
            found.append(f"line {node.lineno}: import")
    return found


def test_lapack_scan_sees_every_form():
    code = ("c = np.polyfit(x, y, 1)\nfrom numpy import polyfit\n"
            "p = P.polyfit(x, y, 1)\nfrom numpy.polynomial import polyfit\n"
            "s = np.linalg.solve(a, b)\nfrom numpy.linalg import norm\n"
            "import numpy.linalg as la\nfrom numpy import linalg\n"
            "from scipy.linalg import lstsq\nz = lstsq_mod.lstsq(a, b)\n"
            "m = importlib.import_module('numpy.linalg')\n"
            "n = __import__('scipy.linalg')\n")
    assert len(_lapack_entries(ast.parse(code))) == 12
    assert _lapack_entries(ast.parse(
        "v = np.polyval(c, x)\nf = np.fft.rfft(x)\nlinalg = 1\n"
        "from numpy import fft\nimport numpy as np\nr = report.fit\n"
        "m = importlib.import_module('json')\nlstsq = None\n")) == []
    parent_fit = "slope = float(np.polyfit(np.log(x), np.log(y), 1)[0])\n"
    assert _lapack_entries(ast.parse(parent_fit)) == ["line 1: .polyfit"]


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_calls_no_lapack(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _lapack_entries(tree) == [], path.name


# Every public library function and method has a caller that runs: it is
# reachable from `cli.main` or from code that runs at import, through loads
# of its name (`f`, `obj.f`, `module.f`) in code already reached.  Names
# match by themselves alone, as for dataclass fields, so a method counts as
# reached when any reached code loads `.name`; reaching a class's name
# reaches its dunder methods.  Annotations are not calls and are skipped.
UNREACHED_BY_DESIGN = {
    "solve_dual_radius": "the radius of the p* form of the small-set "
                         "estimate; ROADMAP item 8 gives it a command",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name_loads(node: ast.AST, at_import: bool = False) -> set:
    """Names and attribute names the code loads, annotations left out;
    at_import also leaves out the function bodies, which do not run then."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        if isinstance(n, FUNCTIONS):
            todo += n.decorator_list + n.args.defaults + [
                d for d in n.args.kw_defaults if d is not None]
            todo += [] if at_import else n.body
        elif isinstance(n, ast.AnnAssign):
            todo += [] if n.value is None else [n.value]
        else:
            todo += ast.iter_child_nodes(n)
    return found


def _unreached(trees: dict, entry: str = "main") -> list:
    """Public functions and methods, as module.name or module.Class.name,
    that no code reached from `entry` or from import loads."""
    defs, dunders = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs.setdefault(node.name, []).append((module, node))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, FUNCTIONS):
                        defs.setdefault(fn.name, []).append(
                            (f"{module}.{node.name}", fn))
                dunders.setdefault(node.name, []).extend(
                    fn for fn in node.body if isinstance(fn, FUNCTIONS)
                    and fn.name.startswith("__"))
    pending = {entry}.union(*(_name_loads(t, at_import=True)
                              for t in trees.values()))
    seen = set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for fn in [fn for _, fn in defs.get(name, ())] + dunders.get(name, []):
            pending |= _name_loads(fn) - seen
    return sorted(f"{owner}.{name}" for name, entries in defs.items()
                  if not name.startswith("_") and name not in seen
                  for owner, _ in entries)


def test_reachability_scan_sees_every_form():
    cli = "def main():\n    run(TABLE['x'])\n    return shapes.area(1)\n"
    lib = ("def run(f):\n    return helper(f)\n"
           "def helper(f):\n    return Box(f).width\n"
           "def area(r: Box) -> Unused:\n    u: Unused = r\n    return u\n"
           "def orphan():\n    return lonely()\n"
           "def lonely():\n    return 1\n"
           "def at_import():\n    return 2\n"
           "TABLE = {'x': at_import()}\n"
           "def fallback():\n    return 0\n"
           "def by_default(x=fallback()):\n    return x\n"
           "class Box:\n"
           "    def __init__(self, f):\n        self.f = checked(f)\n"
           "    @property\n    def width(self):\n        return 1\n"
           "    def height(self):\n        return Unused()\n"
           "def checked(f):\n    return f\n"
           "class Unused:\n"
           "    def __post_init__(self):\n        return dunder_only()\n"
           "def dunder_only():\n    return 3\n"
           "def _private():\n    return 4\n")
    trees = {"cli": ast.parse(cli), "shapes": ast.parse(lib)}
    assert _unreached(trees) == ["shapes.Box.height", "shapes.by_default",
                                 "shapes.dunder_only", "shapes.lonely",
                                 "shapes.orphan"]
    # one load from reached code reaches the whole chain behind it
    trees["cli"] = ast.parse(cli + "def other():\n    orphan(), x.height\n"
                             "main.run = other\n")
    assert _unreached(trees) == ["shapes.by_default"]


def test_every_public_function_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in LIBRARY}
    unreached = _unreached(trees)
    exempt = [label for label in unreached
              if label.rsplit(".", 1)[1] in UNREACHED_BY_DESIGN]
    assert [label for label in unreached if label not in exempt] == []
    # an exception that gains a caller leaves the list
    assert len(exempt) == len(UNREACHED_BY_DESIGN), exempt
