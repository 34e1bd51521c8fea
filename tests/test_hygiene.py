"""Source hygiene: every name a horocover module imports is referenced,
every function, class and public method it defines is used by the program
or the benchmark, every defaulted parameter is set by some caller, no
function is a mere alias of another, every cache has a chosen finite size
and a stated reason, no setdefault builds a default it may not need, every
default config key is read by some command, every layer the benchmark
tracer patches exists, a traced round runs and the traced thin round
reaches `find_long_member` once per pair, and no command loads mpmath."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "horocover"
# the package __init__ imports only to re-export
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never references;
    `from __future__` imports are compiler directives, not names."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            bound += [(a.asname or a.name).partition(".")[0]
                      for a in node.names]
    return [name for name in bound if name not in used]


def test_detector_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import mpmath\n"
              "from fractions import Fraction as F, gcd\n"
              "def f():\n"
              "    from math import inf\n"
              "    return mpmath.mpf(1), F(1)\n")
    assert unused_imports(source) == ["os", "os", "gcd", "inf"]


def test_modules_found():
    assert "thin_cover.py" in [p.name for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _cache_decorators(source: str):
    """(function, decorator call or None, decorator name) for each function,
    nested ones included, decorated by `functools.cache` or `lru_cache`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = dec.func if call else dec
            name = getattr(target, "attr", getattr(target, "id", None))
            if name in ("cache", "lru_cache"):
                yield node, call, name


def unbounded_caches(source: str) -> list[str]:
    """Functions, nested ones included, decorated by `functools.cache` or
    by an `lru_cache` without an explicit positive integer maxsize: a cache
    whose size nobody chose, or one that grows with the run."""
    found = []
    for node, call, name in _cache_decorators(source):
        size = None
        if call is not None and name == "lru_cache":
            given = call.args[:1] + [k.value for k in call.keywords
                                     if k.arg == "maxsize"]
            size = given[0].value if given and isinstance(
                given[0], ast.Constant) else None
        if not (isinstance(size, int) and not isinstance(size, bool)
                and size > 0):
            found.append(node.name)
    return found


def test_detector_flags_unbounded_caches():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=64)\n"
              "def sized(): pass\n"
              "@functools.lru_cache(16)\n"
              "def positional(): pass\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(): pass\n"
              "@cache\n"
              "def plain_cache(): pass\n"
              "@functools.lru_cache\n"
              "def default_size(): pass\n"
              "@lru_cache()\n"
              "def empty_call(): pass\n"
              "def outer():\n"
              "    @lru_cache(maxsize=SIZE)\n"
              "    def named_size(): pass\n")
    assert sorted(unbounded_caches(source)) == sorted([
        "unbounded", "plain_cache", "default_size", "empty_call",
        "named_size"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_bounded(path):
    # a module-level cache lives as long as the process: `horocover thick`
    # at radius 5 walks thousands of rays through one
    assert unbounded_caches(path.read_text()) == []


def cached_functions(source: str, module: str) -> list[str]:
    """The functions, nested ones included, that a cache decorates, named
    module.function."""
    return [f"{module}.{node.name}"
            for node, _, _ in _cache_decorators(source)]


def test_detector_lists_caches():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=64)\n"
              "def sized(): pass\n"
              "@functools.cache\n"
              "def plain(): pass\n"
              "@staticmethod\n"
              "def other(): pass\n"
              "def outer():\n"
              "    @lru_cache(4)\n"
              "    def inner(): pass\n")
    assert sorted(cached_functions(source, "lib")) == [
        "lib.inner", "lib.plain", "lib.sized"]


# the caches kept on purpose, one reason each: a cache hides the cost of
# repeated work instead of removing it
CACHES = {}


def test_caches_listed():
    found = [name for path in MODULES
             for name in cached_functions(path.read_text(), path.stem)]
    assert sorted(found) == sorted(CACHES)


# defined for the tests alone, on purpose; the brute-force references
# live in tests/reference.py
TEST_ONLY = {}


def _referenced_names(node) -> list[str]:
    """Every use of a name in the tree: identifiers, attributes, and the
    parts of dotted-name strings (looked up by name, as in spans.TRACED)."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                out += parts
    return out


def unreferenced(sources: list[str], corpus: list[str]) -> list[str]:
    """Top-level functions and classes, and public methods, defined in
    `sources` whose name the `corpus` sources never use outside the
    definition itself; methods are named Class.method."""
    uses = Counter()
    for text in corpus:
        uses.update(_referenced_names(ast.parse(text)))
    found = []
    for source in sources:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
            for qualname, d in defs:
                name = qualname.rpartition(".")[2]
                own = Counter(_referenced_names(d))[name]
                if uses[name] - own == 0:
                    found.append(qualname)
    return found


def test_detector_flags_unreferenced_definitions():
    lib = ("def used(): pass\n"
           "def spare(): pass\n"
           "def recursive(n): return recursive(n - 1)\n"
           "class Box:\n"
           "    def get(self): return self.get_other()\n"
           "    def get_other(self): pass\n"
           "    def put(self): pass\n"
           "    def _private(self): pass\n"
           "class Lonely: pass\n")
    caller = ("import lib\n"
              "lib.used(); lib.Box().get()\n"
              "TRACED = ['lib.put']\n")
    assert unreferenced([lib], [lib, caller]) == [
        "spare", "recursive", "Lonely"]


def _program_corpus() -> list[str]:
    """The sources of the program and of the benchmark."""
    return [p.read_text() for p in SRC.glob("*.py")] + \
        [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]


def test_no_unused_api():
    found = unreferenced([p.read_text() for p in MODULES], _program_corpus())
    assert sorted(set(found) - set(TEST_ONLY)) == []
    # an allowlisted name that the program came to use needs no entry
    assert sorted(set(TEST_ONLY) - set(found)) == []


def unset_defaults(sources: list[str], corpus: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods, nested ones
    included, defined in `sources` that no call in the `corpus` sources
    passes, by keyword or by position; named function(parameter).  Calls
    are matched by the callee's name (a class's name for its __init__); a
    method's positions start after self or cls, and a call with *args or
    **kwargs passes everything."""
    calls = defaultdict(list)
    for text in corpus:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Call):
                calls[getattr(n.func, "id", getattr(n.func, "attr", None))] \
                    .append(n)
    found = []
    for source in sources:
        tree = ast.parse(source)
        owner = {id(m): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for m in c.body
                 if isinstance(m, ast.FunctionDef) and not any(
                     getattr(d, "id", None) == "staticmethod"
                     for d in m.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            shift = 1 if id(fn) in owner else 0
            callee = owner[id(fn)] if fn.name == "__init__" else fn.name
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            params = [(k, a.arg) for k, a in enumerate(pos) if k >= first]
            params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                     fn.args.kw_defaults)
                       if d is not None]
            for k, name in params:
                if not any(
                        any(kw.arg in (None, name) for kw in c.keywords)
                        or any(isinstance(a, ast.Starred) for a in c.args)
                        or (k is not None and len(c.args) + shift > k)
                        for c in calls[callee]):
                    found.append(f"{fn.name}({name})")
    return found


def test_detector_flags_unset_defaults():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
           "def g(x=0): pass\n"
           "def spread(x=0, y=1): pass\n"
           "class Box:\n"
           "    def __init__(self, size=1, colour=None): pass\n"
           "    def put(self, item, at=0): pass\n"
           "    @staticmethod\n"
           "    def make(n=2): pass\n"
           "def outer():\n"
           "    def inner(depth=5): pass\n"
           "    return inner\n")
    caller = ("f(1, 2, d=0)\n"
              "g\n"
              "spread(*args)\n"
              "Box(3).put(7, 1)\n"
              "Box.make()\n")
    assert unset_defaults([lib], [lib, caller]) == [
        "f(c)", "f(e)", "g(x)", "__init__(colour)", "make(n)",
        "inner(depth)"]


def test_no_unset_defaults():
    # a default that no caller overrides is a constant under another name
    sources = [p.read_text() for p in MODULES]
    assert unset_defaults(sources, _program_corpus()) == []


def alias_functions(source: str, module: str) -> list[str]:
    """Functions and methods, nested ones included, whose body after the
    docstring is one `return f(...)` passing the function's own parameters
    (a method's after self or cls), in order and nothing else, to another
    callable; named module.Class.method or module.function."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix
            if isinstance(child, ast.FunctionDef) and _is_alias(
                    child, isinstance(node, ast.ClassDef)):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def _is_alias(fn: ast.FunctionDef, method: bool) -> bool:
    body = fn.body[ast.get_docstring(fn) is not None:]
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if method and params[:1] in (["self"], ["cls"]):
        params = params[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not params:
        return False
    call = body[0].value
    return isinstance(call, ast.Call) and not call.keywords and [
        a.id if isinstance(a, ast.Name) else None for a in call.args] == params


def test_detector_flags_alias_functions():
    source = ('def to_int(s):\n'
              '    """An alias."""\n'
              '    return int(s)\n'
              'def swapped(a, b): return pow(b, a)\n'
              'def extra(a): return pow(a, 2)\n'
              'def starred(a): return max(*a)\n'
              'def keyword(a): return sorted(a, key=len)\n'
              'def two_steps(a):\n'
              '    b = a\n'
              '    return abs(b)\n'
              'def thunk(): return list()\n'
              'class Box:\n'
              '    def get(self, k): return self.items.get(k)\n'
              '    def own(self): return len(self)\n'
              '    @staticmethod\n'
              '    def make(x, y): return Box.build(x, y)\n'
              'def outer(a):\n'
              '    def inner(a, b): return divmod(a, b)\n'
              '    return inner\n')
    assert alias_functions(source, "lib") == [
        "lib.to_int", "lib.Box.get", "lib.Box.make", "lib.outer.inner"]


# aliases kept on purpose, one reason each
ALIASES = {
    "projection_data.FareyFamily.distance_terms":
        "the family's interface: perfbench/workloads.py passes a family to "
        "the check_* functions",
}


def test_no_alias_functions():
    found = [name for path in MODULES
             for name in alias_functions(path.read_text(), path.stem)]
    assert sorted(set(found) - set(ALIASES)) == []
    # an allowlisted name that stopped being an alias needs no entry
    assert sorted(set(ALIASES) - set(found)) == []


# argument-free calls of these build a default as cheap as a literal
EMPTY_CONTAINERS = {"dict", "list", "set", "frozenset", "tuple"}


def eager_setdefaults(source: str, module: str) -> list[str]:
    """Scopes holding a call x.setdefault(k, d) whose default d is a call
    other than an argument-free dict(), list(), set(), frozenset() or
    tuple(): d is built on every call, whether k is present or not.  Named
    module.Class.function, by the innermost enclosing function or class,
    once per such call."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix
            if _is_eager_setdefault(child):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def _is_eager_setdefault(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault" and len(node.args) == 2):
        return False
    default = node.args[1]
    return isinstance(default, ast.Call) and not (
        getattr(default.func, "id", None) in EMPTY_CONTAINERS
        and not default.args and not default.keywords)


def test_detector_flags_eager_setdefault():
    source = ("d = {}\n"
              "d.setdefault(1, [])\n"
              "d.setdefault(2, list())\n"
              "d.setdefault(3, Box(1))\n"
              "def f(m, k):\n"
              "    m.setdefault(k, dict())\n"
              "    m.setdefault(k, frozenset())\n"
              "    m.setdefault(k, tuple())\n"
              "    m.setdefault(k, set())\n"
              "    m.setdefault(k, k)\n"
              "    m.setdefault(k, list(range(3)))\n"
              "    m.setdefault(k, dict(a=1))\n"
              "class Cache:\n"
              "    def get(self, k):\n"
              "        return self.items.setdefault(k, make(k))\n"
              "def outer():\n"
              "    def inner(m):\n"
              "        m.setdefault(1, collections.Counter())\n"
              "    return inner\n")
    assert eager_setdefaults(source, "lib") == [
        "lib", "lib.f", "lib.f", "lib.Cache.get", "lib.outer.inner"]


def test_no_eager_setdefault():
    found = [name for path in MODULES
             for name in eager_setdefaults(path.read_text(), path.stem)]
    assert found == []


def unread_config_keys(source: str) -> list[str]:
    """Keys of the module's DEFAULT_CONFIG dict literal that it never reads
    as cfg["key"] or cfg.get("key"), in the literal's order; a store such as
    cfg["key"] = value is not a read."""
    tree = ast.parse(source)
    defaults = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                    and [getattr(t, "id", None) for t in n.targets]
                    == ["DEFAULT_CONFIG"])
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load) \
                and getattr(n.value, "id", None) == "cfg":
            read.add(getattr(n.slice, "value", None))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and n.func.attr == "get" \
                and getattr(n.func.value, "id", None) == "cfg" and n.args:
            read.add(getattr(n.args[0], "value", None))
    return [k.value for k in defaults.keys if k.value not in read]


def test_detector_flags_unread_config_keys():
    source = ('DEFAULT_CONFIG = {"seed": 7, "by_get": 1, "stored": 0,\n'
              '                  "other_dict": 2, "unread": 3}\n'
              'def run(cfg, spec):\n'
              '    return cfg["seed"], cfg.get("by_get"), spec["other_dict"]\n'
              'def calibrate(cfg):\n'
              '    cfg["stored"] = 1\n'
              '    return cfg\n')
    assert unread_config_keys(source) == ["stored", "other_dict", "unread"]


def test_every_config_key_read():
    # a key no command reads changes every report's config_hash and
    # nothing else
    assert unread_config_keys((SRC / "cli.py").read_text()) == []


def _traced():
    """perfbench/spans.py's TRACED list, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module,attr", _traced())
def test_traced_layer_exists(module, attr):
    # `--trace 1` patches each of these by name, so a deleted or renamed
    # one breaks the traced benchmark
    owner = importlib.import_module("horocover." + module)
    assert callable(reduce(getattr, attr.split("."), owner))


def test_traced_round_runs():
    # a traced round installs every span through the program's modules and
    # reports a layer for each
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "round.py"), "thick", "7",
         "1", repr(time.monotonic())],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["failed"] == 0
    assert {f"{module}.{attr.rpartition('.')[2]}"
            for module, attr in _traced()} <= set(result["layers"])


def test_traced_thin_round_runs():
    # the thin round verifies S-longness through the function the benchmark
    # traces, once per pair; run without writing bytecode
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "round.py"), "thin", "7",
         "1", repr(time.monotonic())], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["failed"] == 0
    assert result["layers"]["thin_cover.find_long_member"]["calls"] == 120


def imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name a horocover module imports, the module
    absolute, with "*" for a whole module: `import mpmath` gives ("mpmath",
    "*"), `from .certified import X` ("horocover.certified", "X") and
    `from . import certified` ("horocover.certified", "*")."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(a.name, "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = ".".join(filter(None, ("horocover", node.module)))
            found |= {(base, a.name) if node.module else
                      (f"horocover.{a.name}", "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {(node.module, a.name) for a in node.names}
    return found


def test_detector_reads_imports():
    source = ("import mpmath.libmp\n"
              "from mpmath import iv\n"
              "from .certified import INFINITE, CertifiedReal\n"
              "from . import certified\n"
              "from horocover.surd import PHI\n")
    assert imports(source) == {
        ("mpmath.libmp", "*"), ("mpmath", "iv"),
        ("horocover.certified", "INFINITE"),
        ("horocover.certified", "CertifiedReal"),
        ("horocover.certified", "*"), ("horocover.surd", "PHI")}


# the modules that still hold interval arithmetic; each imports mpmath
# inside the functions that build or evaluate an interval, never at module
# level (see test_commands_never_load_mpmath)
INTERVAL_MODULES = {"certified.py", "hyperbolic.py"}


def test_intervals_stay_in_their_modules():
    # every other module decides in integers and rationals: it imports no
    # mpmath and takes only the INFINITE marker from `certified`
    found = {p.name: imports(p.read_text()) for p in MODULES
             if p.name not in INTERVAL_MODULES}
    assert {name: sorted(m for m, _ in names if m.partition(".")[0] ==
                         "mpmath") for name, names in found.items()} == \
        dict.fromkeys(found, [])
    assert {name: sorted(n for m, n in names if m == "horocover.certified"
                         and n != "INFINITE")
            for name, names in found.items()} == dict.fromkeys(found, [])


def test_commands_never_load_mpmath(tmp_path):
    # the verifier decides without intervals, so loading every module and
    # running a command leaves mpmath unloaded; the first interval
    # evaluation loads it and gives the enclosure it always gave at dps 30
    script = (
        "import sys\n"
        "from horocover import cli\n"
        f"assert cli.main(['complex', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('horocover.')))\n"
        "print('mpmath' in sys.modules)\n"
        "from horocover.hyperbolic import IDENTITY, geodesic_point\n"
        "from horocover.surd import PHI\n"
        "print(*geodesic_point(IDENTITY, PHI, 1)[1].interval())\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 0, run.stderr
    loaded, mpmath_loaded, enclosure = run.stdout.splitlines()[-3:]
    assert loaded == str(sorted(f"horocover.{p.stem}" for p in MODULES))
    assert mpmath_loaded == "False"
    assert enclosure == ("9966642217137693716799492521349/"
                         "10141204801825835211973625643008 "
                         "2491660554284423429199873130343/"
                         "2535301200456458802993406410752")
