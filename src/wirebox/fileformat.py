"""On-disk formats: YAML documents with an explicit ``schema`` field.

Seven schemas are understood:

* ``machine.v1``  one machine with its box
* ``wiring.v1``   one wiring with its boxes
* ``system.v1``   boxes, machines, wirings, and named systems
* ``battery.v1``  a list of behavioral tests
* ``attack.v1``   one attack script, self-contained with its payloads
* ``scenario.v1`` systems plus correspondence, knowledge base, battery,
  and named scripts
* ``fincat.v1``   a finite category presentation with set-valued functors

Loading is eager and strict: every reference is resolved, and machines,
wirings, categories and functors are constructed, which checks them, so
any problem raises LoadError naming the offending field path.  That
includes a refusal from a library constructor (a machine, wiring,
system, knowledge base, test, attack step, category or functor that
will not build): its message is reported at the path of the field that
built it, with ``category '<name>': `` or ``functor '<name>': `` before
a category's or functor's.  A test takes only ``name``, ``kind``
and the parameters of its own kind (``depth`` for traces, ``step`` for
output-image); its kind decides how outcomes compare, so a test names no
comparison.  Loading has no side effects and a fixed result for a fixed
file.

Definitions resolve top to bottom: a wiring may name only wirings defined
before it, which keeps files readable and rules out cycles by
construction.

This module parses, reads fields, dispatches on the schema and loads
``fincat.v1``, importing ``fincat`` when it does.  The six other schemas'
loaders and document classes, ``load_kb_dir`` and the writers live in
``systemformat``, which imports ``wiring``, ``moore`` and ``probes``, and
``attacks`` only for systems, attack steps and scenarios.  It is loaded
on the first such document or on the first lookup of one of its names
here (``fileformat.MachineDoc``, ``fileformat.dump_system``), so a
command that reads one category loads none of the machine modules.

Text is parsed with pyyaml's libyaml loader (``yaml.CSafeLoader``) when
pyyaml was built with libyaml, and with the pure-Python
``yaml.SafeLoader`` otherwise.  Both give equal data on every bundled
fixture; two differences are known.  A tab inside or after a plain
scalar (``p1: \\tr``) parses under libyaml and is rejected by
``SafeLoader``; a byte-order mark in mid-document is skipped by
``SafeLoader`` and rejected by libyaml.  Anything the parse raises
becomes a LoadError ``not valid YAML``.  A syntax error reads ``not valid
YAML at line L, column C: <problem>`` under either loader, though the
problem text is the loader's own; a malformed scalar such as
``2001-02-30`` or ``!!bool maybe`` reads ``not valid YAML at line L,
column C: cannot read !!<tag> value '<text>'``, the text cut to 40
characters.  Numbers keep their text: a scalar that reads as a number
but prints differently (``01``, ``1.50``, ``1_000``, ``0x1F``, ``+1``,
``.5``) loads as its text, so a state ``01`` stays apart from a state
``1``, and an integer field written ``06`` is refused at its path.  A
key written twice in one mapping reads ``not valid YAML at line L,
column C: repeated key '<key>'`` at its second place; merge keys
(``<<``) stay allowed, and a key written beside one overrides it.  A
table expression nested more than 100 tables deep is refused at the
path of its outermost expression, ``table expression nests more than
100 tables deep``; a caller whose own stack is nearly full gets
``document nests too deeply`` instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import yaml

from . import Record, WireboxError

if TYPE_CHECKING:  # only the fincat.v1 loader imports fincat at run time
    from . import fincat as fc


def _marked_scalars(base: type) -> type:
    """``base`` with the !!int, !!float, !!bool and !!timestamp constructors
    raising a ConstructorError at the scalar's start mark on a malformed
    value, and a number that prints differently from its text (``01``,
    ``1.50``, ``0x1F``) kept as that text, and a key written twice in one
    mapping refused at its second mark; every other node is constructed
    as ``base`` does it."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            own = node.value  # flatten_mapping drops merge keys from it
            mapping = base.construct_mapping(self, node, deep)
            if len(mapping) != len(node.value):  # a repeat, or an override of a merge
                seen = set()
                for key_node, _ in own:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
            return mapping

    def construct_marked(loader, node):
        # 2001-02-30 and !!int abc raise ValueError, !!bool maybe
        # KeyError, !!timestamp abc AttributeError
        try:
            value = base.yaml_constructors[node.tag](loader, node)
        except (ValueError, KeyError, AttributeError):
            tag = node.tag.rsplit(":", 1)[1]
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read !!{tag} value '{node.value[:40]}'",
                node.start_mark) from None
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and str(value) != node.value):
            return node.value
        return value

    for tag in ("int", "float", "bool", "timestamp"):
        Loader.add_constructor(f"tag:yaml.org,2002:{tag}", construct_marked)
    return Loader


# libyaml's parser when pyyaml was built with it; same documents, ~8x faster
_YAML_LOADER = _marked_scalars(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class LoadError(WireboxError):
    """A document that cannot be loaded, with the field path at fault."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@contextmanager
def _errors_at(path: str):
    """Turn a library constructor's refusal into a LoadError at ``path``;
    a LoadError from a field read inside keeps its own path."""
    try:
        yield
    except LoadError:
        raise
    except WireboxError as e:
        raise LoadError(path, str(e)) from None


# ---------------------------------------------------------------------------
# readers: each is called as read(value, path) and raises LoadError at path
# ---------------------------------------------------------------------------

def _mapping(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise LoadError(path, f"expected a mapping, got {type(v).__name__}")
    return v


def _sequence(v, path: str) -> list:
    if not isinstance(v, list):
        raise LoadError(path, f"expected a list, got {type(v).__name__}")
    return v


def _string(v, path: str) -> str:
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise LoadError(path, f"expected a string, got {type(v).__name__}")
    return str(v)


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise LoadError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _string_map(v, path: str) -> dict[str, str]:
    return {_string(k, path): _string(x, path) for k, x in _mapping(v, path).items()}


def _row(v, path: str, keys: Sequence[str]) -> dict:
    """A mapping with no key outside ``keys``."""
    extra = sorted(set(_mapping(v, path)) - set(keys))
    if extra:
        raise LoadError(path, f"unknown keys {extra}")
    return v


def _field(d: dict, key: str, path: str, read=_string):
    """The required ``d[key]``, read at ``path.key``."""
    if key not in d:
        raise LoadError(path, f"missing required key {key!r}")
    return read(d[key], f"{path}.{key}")


def _list(read):
    """A reader of a list whose item ``i`` is read at ``path[i]``."""
    return lambda v, path: tuple(read(x, f"{path}[{i}]")
                                 for i, x in enumerate(_sequence(v, path)))


_symbols = _list(_string)


def _rows(keys: Optional[Sequence[str]] = None):
    """A reader of a list of mappings, as (row, row path) pairs; with
    ``keys``, no row may hold another key."""
    return _list(lambda v, path: (
        _mapping(v, path) if keys is None else _row(v, path, keys), path))


def _ref(table: Mapping, kind: str, note: str = ""):
    """A reader of a name, resolved to its entry among the ``kind``
    definitions in ``table``."""
    def read(v, path: str):
        name = _string(v, path)
        if name not in table:
            raise LoadError(path, f"unknown {kind} {name!r}{note}")
        return table[name]
    return read


def _named(v, path: str, kind: str, load_item) -> dict:
    """Named items as ``{name: item}``; a repeated name fails at its item.

    ``load_item(row, item_path, earlier)`` gives (name, item); ``earlier``
    holds the items before it.
    """
    out: dict = {}
    for row, ip in _rows()(v, path):
        name, item = load_item(row, ip, out)
        if name in out:
            raise LoadError(ip, f"duplicate {kind} {name!r}")
        out[name] = item
    return out


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

class FincatDoc(Record):
    schema: str
    category: fc.FinCategory
    functors: Mapping[str, fc.SetFunctor]


def _yaml_problem(e: Exception) -> str:
    """The ``not valid YAML`` message, worded alike under either loader."""
    mark = getattr(e, "problem_mark", None)
    if mark is None:
        return f"not valid YAML: {e}"
    return (f"not valid YAML at line {mark.line + 1}, "
            f"column {mark.column + 1}: {e.problem}")


def loads(text: str, source: str = "<string>"):
    """Parse and resolve a document from text; see load."""
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except Exception as e:
        # besides YAMLError, the pure-Python loader raises RecursionError
        # on deep nesting
        raise LoadError(source, _yaml_problem(e)) from None
    try:
        return _document(data, source)
    except RecursionError:  # a backstop: the loaders recurse per table
        raise LoadError(source, "document nests too deeply") from None


def _document(data, source: str):
    """The document object for parsed YAML ``data``."""
    schema = _field(_mapping(data, source), "schema", source)
    if schema not in SCHEMAS:
        raise LoadError(f"{source}.schema",
                        f"unknown schema {schema!r}; expected one of {list(SCHEMAS)}")
    if schema == "fincat.v1":
        return _doc_fincat(data, source)
    from . import systemformat
    return systemformat.LOADERS[schema](data, source)


def load(path: str):
    """Load one YAML document from a file, strictly.

    Returns the document object for the file's schema.  Raises LoadError
    with a field path on any structural problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise LoadError(path, f"cannot read: {e}") from None
    return loads(text, source=os.path.basename(path))


def _doc_fincat(d: dict, src: str) -> FincatDoc:
    from . import fincat as fc

    _row(d, src, ("schema", "name", "objects", "morphisms", "identities",
                  "composition", "functors"))
    name = _field(d, "name", src)
    objects = _field(d, "objects", src, _symbols)
    morphisms = tuple(
        fc.Morphism(_field(row, "id", rp), _field(row, "src", rp), _field(row, "tgt", rp))
        for row, rp in _field(d, "morphisms", src, _rows(("id", "src", "tgt"))))
    identities = _field(d, "identities", src, _string_map)
    composition = {}
    for row, rp in _field(d, "composition", src, _rows(("after", "first", "result"))):
        key = (_field(row, "after", rp), _field(row, "first", rp))
        if key in composition:
            raise LoadError(rp, f"duplicate composition entry {key}")
        composition[key] = _field(row, "result", rp)
    try:
        cat = fc.FinCategory(name, objects, morphisms, identities, composition)
    except fc.FinCatError as e:
        raise LoadError(src, f"category {name!r}: {e}") from None

    def functor(row, rp: str, _) -> tuple[str, fc.SetFunctor]:
        row = _row(row, rp, ("name", "objects", "morphisms"))
        fname = _field(row, "name", rp)
        on_obj = {_string(k, f"{rp}.objects"): _symbols(v, f"{rp}.objects[{k}]")
                  for k, v in _field(row, "objects", rp, _mapping).items()}
        on_mor = {}
        for mk, mv in _field(row, "morphisms", rp, _mapping).items():
            mp = f"{rp}.morphisms[{mk}]"
            on_mor[_string(mk, mp)] = _string_map(mv, mp)
        try:
            return fname, fc.SetFunctor(fname, cat, on_obj, on_mor)
        except fc.FinCatError as e:
            raise LoadError(rp, f"functor {fname!r}: {e}") from None

    functors = _named(d.get("functors", []), f"{src}.functors", "functor", functor)
    return FincatDoc("fincat.v1", cat, functors)


SCHEMAS = ("machine.v1", "wiring.v1", "system.v1", "battery.v1", "attack.v1",
           "scenario.v1", "fincat.v1")

# systemformat's public names, looked up there on each use
_SYSTEM_NAMES = frozenset((
    "MachineDoc", "WiringDoc", "SystemDoc", "BatteryDoc", "AttackDoc",
    "ScenarioDoc", "load_kb_dir", "box_data", "machine_data", "expr_data",
    "wiring_data", "dump_machine", "collect_boxes",
    "dump_system"))


def __getattr__(name: str):
    if name in _SYSTEM_NAMES:
        from . import systemformat
        return getattr(systemformat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
