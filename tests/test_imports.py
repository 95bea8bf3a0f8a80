"""Every name a library module imports at top level is used in it, and
every module-level private function or class, and every private method of
a module-level class, is referenced in the library; series.py imports
neither the vector listing nor a decomposition of one vector; no module
imports `dataclasses`; importing ppart parses no fixture file; and every
function that runs with the cyclic collector paused is exercised by the
cycle tests.

Stdlib checks by `ast`: an import left behind when its last use goes, or a
helper orphaned when its last caller goes, fails here.  `__init__.py` is
skipped by the import check, since it imports to re-export.
"""

import ast
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from test_cycles import CALLS

SRC = pathlib.Path(__file__).parent.parent / "src" / "ppart"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport itertools\nimport math\nmath.pi\n"
    assert unused_imports(source) == ["itertools (line 2)"]


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """The module-level `_private` functions and classes, and the
    `_private` methods of module-level classes, of the given modules
    that no module refers to by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defs = ((name, "", node) for name, tree in trees.items() for node in tree.body)
    methods = ((name, f"{cls.name}.", node)
               for name, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body)
    return sorted(
        f"{name}: {owner}{node.name} (line {node.lineno})"
        for name, owner, node in itertools.chain(defs, methods)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    )


def test_no_orphaned_private_helpers():
    assert orphaned_privates({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_detects_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    pass\n\nclass _Kept:\n    pass\n",
        "b.py": "from a import _used\nimport a\n_used()\na._Kept()\n",
    }
    assert orphaned_privates(sources) == ["a.py: _orphan (line 4)"]


def test_detects_an_orphaned_method():
    sources = {
        "a.py": "class C:\n    def _used(self):\n        pass\n\n"
                "    def _orphan(self):\n        pass\n\n    def __len__(self):\n        return 0\n",
        "b.py": "from a import C\nC()._used()\n",
    }
    assert orphaned_privates(sources) == ["a.py: C._orphan (line 5)"]


# The x, (t,x) and (t,q) series take f and nu(f) from the walk over chains
# of level ideals; series.py lists no vector and decomposes none again.
NOT_IN_SERIES = ("enumerate_partitions", "nu", "nested_decomposition", "connected_decomposition")


def imports_of(source: str, names) -> list[str]:
    """The given names imported anywhere in the source, under any alias."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in names)


def test_series_imports_no_listing_or_decomposition():
    assert imports_of((SRC / "series.py").read_text(), NOT_IN_SERIES) == []


def test_detects_a_layering_import():
    source = ("from .partitions import WEAK, nu as count\n\n"
              "def f():\n    from .partitions import enumerate_partitions\n")
    assert imports_of(source, NOT_IN_SERIES) == ["enumerate_partitions (line 4)", "nu (line 1)"]


# Records are NamedTuples: a dataclass generates and execs its methods
# when its module is imported, a cost every CLI process pays, and
# `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`.
def imported_modules(source: str) -> list[str]:
    """The absolute module names the source imports anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert [m for m in imported_modules(path.read_text())
            if m.split(".")[0] == "dataclasses"] == []


def test_detects_an_import_of_dataclasses():
    source = ("from .poset import Poset\nimport json, dataclasses as dc\n\n"
              "def f():\n    from dataclasses import replace\n")
    assert imported_modules(source) == ["dataclasses", "json"]


def test_importing_ppart_parses_no_fixture():
    # a fixture is parsed when its name is first read, in a fresh interpreter here
    code = ("import ppart, ppart.cli\nfrom ppart.poset import Poset\n"
            "print([k for k, v in vars(ppart.fixtures).items() if isinstance(v, Poset)])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_fixture_is_parsed_once():
    from ppart import fixtures
    from ppart.fixtures import FIG1
    from ppart.poset import Poset

    assert type(FIG1) is Poset and vars(fixtures)["FIG1"] is FIG1 is fixtures.FIG1
    with pytest.raises(AttributeError, match="FIG2"):
        fixtures.FIG2


# A kernel runs with the collector paused only if it leaves no cycle
# behind, which `test_cycles` shows for each of its CALLS.
PAUSE = "_collector_paused"


def paused_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module file, function name) for every function decorated with PAUSE."""
    return sorted(
        (name, node.name)
        for name, source in sources.items() for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(d, "id", getattr(d, "attr", None)) == PAUSE
                for d in node.decorator_list)
    )


def test_detects_a_paused_function():
    source = ("from .poset import _collector_paused\n\n@_collector_paused\ndef f():\n"
              "    pass\n\n@poset._collector_paused\ndef g():\n    pass\n\ndef h():\n    pass\n")
    assert paused_functions({"a.py": source}) == [("a.py", "f"), ("a.py", "g")]


def test_every_paused_function_is_cycle_tested():
    paused = paused_functions({p.name: p.read_text() for p in SRC.glob("*.py")})
    assert {name for _, name in paused} == {"pairs_among", "linear_extensions", "semigroup_ideal"}
    called = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((pathlib.Path(code.co_filename).name, code.co_name))

    sys.setprofile(record)
    try:
        for call in CALLS.values():
            call()
    finally:
        sys.setprofile(None)
    assert [f for f in paused if f not in called] == []


# Python 3.10 has no default length or byteorder for `int.to_bytes` and
# `int.from_bytes`; both arrived in 3.11, which runs the rest of the suite.
BYTES_CALLS = ("to_bytes", "from_bytes")


def implicit_byte_calls(source: str) -> list[str]:
    """Calls of to_bytes or from_bytes that leave out the length (for
    to_bytes) or the byteorder, by position or keyword."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in BYTES_CALLS):
            given = len(node.args) + sum(k.arg in ("length", "byteorder") for k in node.keywords)
            if given < 2:
                out.append(f"{node.func.attr} (line {node.lineno})")
    return out


def test_byte_calls_name_length_and_byteorder():
    calls = {p.name: p.read_text().count("_bytes(") for p in SRC.glob("*.py")}
    assert sum(calls.values()) >= 3  # the codec's pack and unpack
    for path in SRC.glob("*.py"):
        assert implicit_byte_calls(path.read_text()) == [], path.name


def test_detects_an_implicit_byte_call():
    source = ("k.to_bytes(4, 'big')\nk.to_bytes()\nk.to_bytes(length=2)\n"
              "int.from_bytes(b, 'big')\nint.from_bytes(b)\nk.to_bytes(2, byteorder='big')\n")
    assert implicit_byte_calls(source) == ["to_bytes (line 2)", "to_bytes (line 3)",
                                           "from_bytes (line 5)"]
