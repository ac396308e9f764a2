"""Every library and test module uses each name it imports; the library
references each public function, class and method it defines; what ``import
wirebox.cli`` and each command load, and the stdlib modules behind
``dataclasses`` that none of them loads, and ``hashlib``, which
``diff`` does not load; that ``import wirebox`` loads
no submodule and defines only ``WireboxError``, ``Record`` and
``__version__``; the writers ``fileformat`` resolves on first use; and
that every record, results and documents included, is a
``wirebox.Record`` and none a named tuple; and that the README's "Kept
values" table lists every attribute ``wirebox._kept`` stores.

The unused-import check uses the stdlib ``ast`` module only: a name
counts as used when it appears as a name node anywhere in the module.
Quoted annotations are strings to ``ast``, so a name used only there
counts as unused; every module has ``from __future__ import
annotations`` and needs no quotes.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from collections import Counter
from types import ModuleType

import pytest

import wirebox
from wirebox import attacks, fileformat, fingerprints, systemformat, writers
from wirebox.attacks import LogEntry, ScriptResult
from wirebox.probes import LearnResult
from test_records import FIELDS, IDENTITY

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wirebox"


def unused_imports(path: pathlib.Path) -> list[str]:
    """``module: name`` for each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}: {name}" for name in imported if name not in used]


def test_library_modules_use_every_name_they_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def test_no_library_module_imports_the_reference():
    # oracle.py is the independent reference semantics; the library's own
    # searches never call it
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
                names.append(str(node.module))
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(".oracle." in f".{n}." for n in names):
                importers.append(path.name)
    assert importers == []


# public names no command reaches that a later change is meant to reach:
# a diff's witness, a script's morphism witnesses, carrying a script to
# the real system, and the identity and composition whose laws the
# acceptance criteria check
UNREACHED = {"outcome_witness", "ScriptResult.witnesses", "transport_script",
             "identity_of", "compose_homs"}


def references(node: ast.AST, docstrings: set[int]) -> Counter:
    """How often ``node`` references each name: names, attributes,
    imports, and string constants that are identifiers, docstrings left
    out.  A method is reached through any object, so this loose count is
    what a method's name gets."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier() and id(n) not in docstrings):
            out[n.value] += 1
    return out


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds for itself:
    its parameters or targets, and what its body assigns, imports or
    defines, less what it declares global."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                 a.vararg, a.kwarg) if p}
        todo = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    else:
        names, todo = set(), list(ast.iter_child_nodes(scope))
    declared = set()
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in n.names)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.Global):
            declared.update(n.names)
        if isinstance(n, (*SCOPES, ast.ClassDef)):
            names.add(getattr(n, "name", None))
        else:
            todo.extend(ast.iter_child_nodes(n))
    return names - declared


def imported(base: str, name: str):
    """What ``from base import name`` binds: a submodule, or an attribute."""
    try:
        return importlib.import_module(f"{base}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(base), name)


def resolved_references(tree: ast.Module, name: str) -> list[Counter]:
    """For each top-level statement of module ``name``, the library
    objects its code reaches, by ``id``, each with how often: through a
    bare name that no enclosing function rebinds, a ``from`` import, or
    an attribute of a name an import binds to a library module.

    A name counts as the object it resolves to, so ``ff.dump_system``
    counts for ``systemformat.dump_system``, which ``fileformat`` looks
    up on use, and a same-named variable, attribute or string counts
    for nothing.  The library imports its own modules relatively.
    """
    module = importlib.import_module(name)
    bound = {id(n): [(a.asname or a.name,
                      imported(f"wirebox.{n.module}" if n.module else "wirebox",
                               a.name)) for a in n.names]
             for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    aliases = {local: value for pairs in bound.values()
               for local, value in pairs if isinstance(value, ModuleType)}

    def visit(node, shadowed, found):
        if isinstance(node, SCOPES):
            shadowed = shadowed | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in shadowed:
            found[id(getattr(module, node.id, None))] += 1
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found[id(getattr(aliases[node.value.id], node.attr, None))] += 1
        elif id(node) in bound:
            found.update(id(value) for _, value in bound[id(node)])
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, found)
        return found

    return [visit(stmt, frozenset(), Counter()) for stmt in tree.body]


def test_every_public_library_name_is_referenced_in_the_library():
    # the library is what the commands reach: a public function, class or
    # method that only tests call belongs in tests, or in oracle.py, the
    # reference semantics, which this check leaves out on both sides.  A
    # top-level name is reached where its module's code resolves to it; a
    # method, through any object, so any same-named reference counts, and
    # one overriding a method of a base class is reached through the base.
    defined, used, loose = {}, Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        name = "wirebox" if path.stem == "__init__" else f"wirebox.{path.stem}"
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        resolved = resolved_references(tree, name)
        for stmt, reached in zip(tree.body, resolved):
            used += reached
            loose += references(stmt, docstrings)
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    or stmt.name.startswith("_"):
                continue
            # a definition's references to itself do not reach it
            mine = id(getattr(module, stmt.name))
            defined[stmt.name] = (path.name, used, mine, reached[mine])
            if isinstance(stmt, ast.ClassDef):
                bases = getattr(module, stmt.name).__mro__[1:]
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) \
                            and not node.name.startswith("_") \
                            and not any(hasattr(b, node.name) for b in bases):
                        own = references(node, docstrings)[node.name]
                        defined[f"{stmt.name}.{node.name}"] = (
                            path.name, loose, node.name, own)
    assert UNREACHED <= defined.keys()
    unreached = {key for key, (_, counts, target, own) in defined.items()
                 if counts[target] == own}
    assert {f"{defined[key][0]}: {key}" for key in unreached - UNREACHED} == set()
    # each allowed name is still unreached, or it leaves the list
    assert UNREACHED <= unreached


def test_test_modules_use_every_name_they_import():
    modules = sorted((ROOT / "tests").glob("*.py"))
    assert ROOT / "tests" / "test_imports.py" in modules
    assert [u for p in modules for u in unused_imports(p)] == []


def fresh(code: str, *argv: str) -> str:
    """The stdout of ``code`` run in a new interpreter, with the tests
    directory and this checkout's package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


# ``dataclasses`` and what importing it loads besides; no command needs
# them, since the library's records are built on ``wirebox.Record``
DATACLASS_STACK = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_the_command_line_imports_neither_fincat_nor_dot():
    out = fresh("import wirebox.cli, sys; print(sorted(sys.modules))")
    loaded = set(ast.literal_eval(out))
    assert {"wirebox.cli", "wirebox.fileformat"} <= loaded
    assert not {"wirebox.fincat", "wirebox.dot"} & loaded
    assert not DATACLASS_STACK & loaded


UAV = ROOT / "fixtures" / "uav"
SCENARIO = str(UAV / "scenario.yaml")
# each cli-airframe command, its exit code, and the modules it loads
# besides wirebox, wirebox.cli and wirebox.fileformat
MACHINES = {"systemformat", "wiring", "moore", "probes"}
COMMANDS = {
    "yoneda-check": (["yoneda-check", "--file",
                      str(ROOT / "fixtures" / "fincat" / "cyc3.yaml")],
                     0, {"fincat"}),
    "learn": (["learn", "--kb", str(UAV / "kb"), "--target",
               str(UAV / "target.yaml"), "--battery", str(UAV / "battery.yaml")],
              0, MACHINES),
    "diff": (["diff", "--scenario", SCENARIO, "--script", "gps-firmware"],
             1, MACHINES | {"attacks"}),
    "attack": (["attack", "--scenario", SCENARIO, "--script", "combo", "--out",
                "OUT"], 0, MACHINES | {"attacks", "writers", "fingerprints"}),
    "compose": (["compose", "--system", SCENARIO, "--name", "real"],
                0, MACHINES | {"attacks", "writers"}),
    "simulate": (["simulate", "--system", SCENARIO, "--name", "real",
                  "--input", "0|1,1|1"], 0, MACHINES | {"attacks"}),
    "export-dot": (["export-dot", "--file", SCENARIO, "--wiring",
                    "sensor-view"], 0, MACHINES | {"attacks", "dot"}),
    "validate": (["validate", SCENARIO], 0, MACHINES | {"attacks"}),
}
DISPATCH = """
import io, sys
from wirebox.cli import dispatch
code = dispatch(sys.argv[1:], io.StringIO(), io.StringIO())
print([code, sorted(sys.modules)])
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_the_modules_it_uses(command, tmp_path):
    argv, want_code, modules = COMMANDS[command]
    argv = [str(tmp_path / "out.yaml") if a == "OUT" else a for a in argv]
    code, everything = ast.literal_eval(fresh(DISPATCH, *argv))
    loaded = {m for m in everything if m.startswith("wirebox")}
    assert code == want_code
    assert not DATACLASS_STACK & set(everything)
    assert loaded == {"wirebox", "wirebox.cli", "wirebox.fileformat"} \
        | {f"wirebox.{m}" for m in modules}
    if command == "learn":
        assert not {"attacks", "oracle", "fincat", "dot"} & modules
    # the reference semantics checks the library and runs in no command
    assert "wirebox.oracle" not in loaded


def test_diff_computes_no_fingerprint():
    # diff prints no provenance log, so it renders no canonical text for
    # one and never loads hashlib; combo both rewrites and rewires
    argv = ["diff", "--scenario", SCENARIO, "--script", "combo"]
    code, everything = ast.literal_eval(fresh(DISPATCH, *argv))
    assert code == 1
    assert "hashlib" not in everything


# each writer called in an interpreter that has loaded no document, so
# ``fileformat`` resolves it on that first call; each prints what it
# wrote and what that reads back as
WRITERS = {
    "dump_machine": """
m = uav.gps_history_machine()
text = ff.dump_machine("gps", m)
print(text == ff.dump_machine("gps", ff.loads(text).machine))
""",
    "dump_system": """
systems = {"view": uav.build_uav_attacker_view()}
text = ff.dump_system(systems)
print(text == ff.dump_system(ff.loads(text).systems))
""",
    "load_kb_dir": """
kb = ff.load_kb_dir(sys.argv[1])
print(len(kb.entries) == 4 and all(
    ff.loads(ff.dump_machine(n, m)).machine == m for n, m in kb.entries))
""",
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_work_before_any_document_is_loaded(writer):
    code = ("import sys\nimport uav\nfrom wirebox import fileformat as ff\n"
            "assert 'wirebox.systemformat' not in sys.modules\n"
            + WRITERS[writer])
    assert fresh(code, str(UAV / "kb")) == "True\n"


def test_fileformat_resolves_every_writer_and_attacks_each_fingerprint():
    # the writers and fingerprints have modules of their own, which only
    # the commands that write a document or print a log load
    public = {n for n, v in vars(writers).items()
              if not n.startswith("_")
              and getattr(v, "__module__", None) == writers.__name__}
    assert public == fileformat._WRITER_NAMES
    for name in public:
        assert getattr(fileformat, name) is getattr(writers, name)
    for name in ("fingerprint_wiring", "fingerprint_components"):
        assert getattr(attacks, name) is getattr(fingerprints, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        attacks.no_such_name


def test_fileformat_resolves_every_public_name_of_systemformat():
    public = {n for n, v in vars(systemformat).items()
              if not n.startswith("_") and n != "LOADERS"
              and getattr(v, "__module__", None) == systemformat.__name__}
    assert public == fileformat._SYSTEM_NAMES
    assert fileformat.SCHEMAS == (*systemformat.LOADERS, "fincat.v1")
    for name in public:
        assert getattr(fileformat, name) is getattr(systemformat, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        fileformat.no_such_name


def defaults(cls) -> dict:
    """A record class's defaults, by field."""
    return {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}


def test_records_keep_their_fields_defaults_and_verdicts():
    docs = {"MachineDoc": "schema name machine",
            "WiringDoc": "schema name wiring boxes",
            "SystemDoc": "schema boxes machines wirings systems",
            "BatteryDoc": "schema tests",
            "AttackDoc": "schema name system script boxes machines wirings",
            "ScenarioDoc": "schema boxes machines wirings systems scenario",
            "FincatDoc": "schema category functors"}
    for name, names in docs.items():
        cls = getattr(fileformat, name)
        assert cls._fields == tuple(names.split()), name
        assert defaults(cls) == {}, name
    assert ScriptResult._fields == ("system", "log")
    assert LogEntry._fields == ("position", "step", "before", "system")
    assert LearnResult._fields == ("candidates", "classification", "matrix",
                                   "incomplete")
    assert defaults(LearnResult) == {"incomplete": ()}
    assert defaults(ScriptResult) == {}
    assert defaults(LogEntry) == {}
    assert ScriptResult("s", ()).witnesses == ()
    assert LearnResult((), "unknown", ()).incomplete == ()


def test_the_record_classes_are_the_pinned_ones_with_their_field_tuples():
    modules = [importlib.import_module(f"wirebox.{p.stem}")
               for p in SRC.glob("*.py") if p.name != "__init__.py"]
    records = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and issubclass(v, wirebox.Record)
               and v is not wirebox.Record}
    assert records == set(FIELDS)
    for cls in records:
        assert cls._fields == tuple(FIELDS[cls].split()), cls
        assert (cls.__eq__ is object.__eq__) == (cls in IDENTITY), cls
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


def test_every_record_is_a_record_and_none_a_tuple():
    # no library module names a named tuple, in an import or anywhere else
    for path in sorted(SRC.glob("*.py")):
        names = {n.id if isinstance(n, ast.Name) else n.attr if
                 isinstance(n, ast.Attribute) else n.name
                 for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
        assert not names & {"NamedTuple", "namedtuple"}, path.name
    modules = [importlib.import_module(f"wirebox.{p.stem}")
               for p in SRC.glob("*.py") if p.name != "__init__.py"]
    classes = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__}
    assert not [c for c in classes if issubclass(c, tuple)]
    assert {c for c in classes if hasattr(c, "_fields")} == set(FIELDS)


def test_a_record_class_is_checked_when_it_is_defined():
    class Pair(wirebox.Record):
        left: int
        right: int = 0

    class Triple(Pair):
        extra: str = "x"

    assert Triple._fields == ("left", "right", "extra")
    assert Triple(1) == Triple(1, 0, "x") != Pair(1)
    assert repr(Triple(1, extra="y")) == \
        f"{Triple.__qualname__}(left=1, right=0, extra='y')"
    with pytest.raises(TypeError, match=r"Pair.__init__\(\) missing 1 required"):
        Pair()
    with pytest.raises(TypeError, match="without a default follows"):
        class Gap(wirebox.Record):
            a: int = 0
            b: int
    with pytest.raises(TypeError, match="at most 8 fields"):
        class Wide(wirebox.Record):
            __annotations__ = {f"f{i}": int for i in range(9)}


def test_importing_the_package_loads_no_submodule_and_defines_two_names():
    out = fresh("import sys, wirebox\n"
                "print([sorted(m for m in sys.modules if m.startswith('wirebox')),"
                " sorted(n for n in vars(wirebox) if not n.startswith('_')),"
                " wirebox.__version__])")
    loaded, public, version = ast.literal_eval(out)
    assert loaded == ["wirebox"]
    assert public == ["Record", "WireboxError"]
    assert version == "0.1.0"


def test_every_library_error_is_a_wirebox_error():
    modules = [importlib.import_module(f"wirebox.{p.stem}")
               for p in SRC.glob("*.py") if p.name != "__init__.py"]
    # each public exception class a library module defines
    errors = {v for m in modules for n, v in vars(m).items()
              if not n.startswith("_") and isinstance(v, type)
              and issubclass(v, Exception) and v.__module__ == m.__name__}
    assert fileformat.LoadError in errors
    assert len(errors) == 9
    for cls in errors:
        assert issubclass(cls, wirebox.WireboxError), cls


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        wirebox.no_such_name


def kept_attributes() -> set[str]:
    """Every attribute name a library call ``_kept(obj, "<name>", ...)``
    stores, read off the source by ``ast``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "_kept":
                name = node.args[1]
                assert isinstance(name, ast.Constant), (path.name, node.lineno)
                names.add(name.value)
    return names


def test_the_readme_lists_every_kept_value():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Kept values\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    listed = {cells[1].strip().strip("`") for cells in rows}
    kept = kept_attributes()
    assert {"_routing", "_positions", "_numbering"} <= kept
    assert sorted(kept - listed) == []
    assert sorted(listed - kept) == []
