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

This module parses, reads fields and dispatches on the schema.
``fincat.v1``'s loader and ``FincatDoc`` live in ``fincat``; the six
other schemas' loaders and document classes, and ``load_kb_dir``, live
in ``systemformat``, which imports ``wiring``, ``moore`` and ``probes``,
and ``attacks`` only for systems, attack steps and scenarios.  The
writers (``box_data`` through ``dump_system``) live in ``writers``.
Each module is loaded on the first lookup of one of its names here
(``fileformat.MachineDoc``, ``fileformat.dump_system``), and
``fincat`` or ``systemformat`` on the first such document, so a command
that reads one category loads none of the machine modules, one that
reads machines compiles no category loader, and one that writes no
document loads no writer.

Text is composed into a node graph by pyyaml's libyaml parser
(``yaml.CSafeLoader``) when pyyaml was built with libyaml, and by the
pure-Python ``yaml.SafeLoader`` otherwise; ``_build`` makes the data in
one walk over the nodes.  Both parsers give equal data on every bundled
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
mapping whose keys are read as text (a state map, a category's
identities, a functor's objects and morphisms) refuses two keys that
read as one, such as ``10`` and ``'10'``, at the second one's path
``<path>[10]``: ``keys 10 and '10' both read as '10'``.  A
table expression nested more than 100 tables deep is refused at the
path of its outermost expression, ``table expression nests more than
100 tables deep``; a caller whose own stack is nearly full gets
``document nests too deeply`` instead.
"""

from __future__ import annotations

import os
from collections.abc import Hashable
from contextlib import contextmanager
from typing import Mapping, Optional, Sequence

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from . import WireboxError

# the parser: libyaml's when pyyaml was built with it, ~8x faster; it
# composes the node graph that ``_build`` turns into the document
_PARSER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP, _NULL = (_TAG + t for t in ("str", "seq", "map", "null"))
_MERGE, _VALUE = _TAG + "merge", _TAG + "value"
# the scalars that keep their text, or are refused at their mark
_MARKED = frozenset(_TAG + t for t in ("int", "float", "bool", "timestamp"))
_SAFE = yaml.constructor.SafeConstructor.yaml_constructors


class _Walk:
    """What ``yaml.load`` asks of a loader: the document of one text,
    built by ``_build`` from the nodes ``_PARSER`` composes."""

    def __init__(self, text: str):
        self.parser = _PARSER(text)

    def get_single_data(self):
        node = self.parser.get_single_node()
        return None if node is None else _build(node, self.parser)

    def dispose(self):
        self.parser.dispose()


def _build(root, parser):
    """The data of the node graph under ``root``, in one walk.

    It is what pyyaml's ``SafeConstructor`` builds, in the same order
    (breadth first: a list or mapping is filled once every node above
    it is built), under the library's rules.  A malformed !!int,
    !!float, !!bool or !!timestamp is refused at its start mark, and a
    number that prints differently from its text (``01``, ``1.50``,
    ``0x1F``) stays that text (``_marked``).  A key written twice in one
    mapping is refused at its second mark once the mapping's pairs are
    built (``_fill``); a merge key (``<<``) brings in the pairs of a
    mapping or a list of mappings, and a key written beside it overrides
    them (``_flatten``).  Every other node (``!!binary``, ``!!set``, an
    unknown tag, a string tag on a list) is built by ``parser``, a
    ``SafeConstructor`` sharing the walk's table of built nodes, so an
    alias is one object wherever it appears.
    """
    built = {}  # node -> its list, mapping or fallback value
    todo = []   # (node, empty container) in the order they are met
    flat = {}   # mapping node -> (merged pairs, own pairs)

    def value(node):
        tag = node.tag
        if type(node) is ScalarNode:
            if tag == _STR:
                return node.value
            if tag in _MARKED:
                return _marked(node, parser)
            if tag == _NULL:
                return None
        elif node in built:
            return built[node]
        elif (tag == _SEQ and type(node) is SequenceNode
              or tag == _MAP and type(node) is MappingNode):
            data = built[node] = [] if tag == _SEQ else {}
            todo.append((node, data))
            return data
        data = parser.construct_object(node)  # kept in ``built`` by pyyaml
        adopt()
        return data

    def adopt():
        # the generators that fill pyyaml's nodes join the walk's queue, so
        # every node is filled in pyyaml's order
        todo.extend((None, fill) for fill in parser.state_generators)
        parser.state_generators = []

    parser.constructed_objects = built
    top = value(root)
    for node, data in todo:  # grows as the walk meets containers
        if node is None:
            for _ in data:  # a generator: it fills its node when run out
                pass
            adopt()
        elif type(data) is list:
            data.extend([value(child) for child in node.value])
        else:
            _fill(node, data, value, flat)
    return top


def _fill(node, data: dict, value, flat: dict) -> None:
    """Fill mapping node ``node``'s dict ``data``, building each key and
    value with ``value``; refuse an unhashable key at once, and a key
    written twice once every pair is built."""
    merged, own = _flatten(node, flat)
    for key_node, value_node in (merged + own if merged else own):
        key = value(key_node)
        if type(key) is not str and not isinstance(key, Hashable):
            raise ConstructorError("while constructing a mapping", node.start_mark,
                                   "found unhashable key", key_node.start_mark)
        data[key] = value(value_node)
    if len(data) != len(merged) + len(own):  # a repeat, or an override
        seen = set()
        for key_node, _ in own:
            key = value(key_node)
            if key in seen:
                raise ConstructorError(None, None, f"repeated key {key!r}",
                                       key_node.start_mark)
            seen.add(key)


def _flatten(node, flat: dict) -> tuple[list, list]:
    """A mapping node's pairs as (merged, own), kept in ``flat``: the
    pairs its merge keys bring in, in ``SafeConstructor.flatten_mapping``'s
    order (a list's later mapping first, so an earlier one wins), and its
    own pairs, a ``=`` key read as text.  A mapping merged into itself
    brings in its own pairs."""
    if node in flat:
        return flat[node]
    pairs = node.value
    if not any(k.tag == _MERGE or k.tag == _VALUE for k, _ in pairs):
        flat[node] = [], pairs
        return flat[node]
    merged: list = []
    own = [(k, v) for k, v in pairs if k.tag != _MERGE]
    flat[node] = [], own
    for k, v in pairs:
        if k.tag == _VALUE:
            k.tag = _STR
        if k.tag != _MERGE:
            continue
        parts = v.value if type(v) is SequenceNode else [v]
        for sub in parts:
            if type(sub) is not MappingNode:
                want = ("a mapping" if type(v) is SequenceNode
                        else "a mapping or list of mappings")
                raise ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"expected {want} for merging, but found {sub.id}",
                    sub.start_mark)
        for sub in reversed(parts):
            sub_merged, sub_own = _flatten(sub, flat)
            merged += sub_merged + sub_own
    flat[node] = merged, own
    return flat[node]


def _marked(node, parser):
    """A !!int, !!float, !!bool or !!timestamp scalar, refused at its
    mark when malformed; a number that prints differently stays text."""
    # 2001-02-30 and !!int abc raise ValueError, !!bool maybe KeyError,
    # !!timestamp abc AttributeError
    try:
        value = _SAFE[node.tag](parser, node)
    except (ValueError, KeyError, AttributeError):
        tag = node.tag.rsplit(":", 1)[1]
        raise ConstructorError(None, None,
                               f"cannot read !!{tag} value '{node.value[:40]}'",
                               node.start_mark) from None
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and str(value) != node.value):
        return node.value
    return value


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


def _text_keyed(v, path: str):
    """The (key text, value) pairs of mapping ``v``.  Two keys that YAML
    tells apart but that read as one text, such as ``10`` and ``'10'``,
    are refused at the second one's path, ``path[10]``."""
    seen: dict = {}
    for k, x in _mapping(v, path).items():
        key = _string(k, path)
        if key in seen:
            raise LoadError(f"{path}[{key}]",
                            f"keys {seen[key]!r} and {k!r} both read as {key!r}")
        seen[key] = k
        yield key, x


def _string_map(v, path: str) -> dict[str, str]:
    return {k: _string(x, path) for k, x in _text_keyed(v, path)}


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
        data = yaml.load(text, Loader=_Walk)
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
        from . import fincat
        return fincat._doc_fincat(data, source)
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


SCHEMAS = ("machine.v1", "wiring.v1", "system.v1", "battery.v1", "attack.v1",
           "scenario.v1", "fincat.v1")

# the public names of systemformat and writers, looked up there on each use
_SYSTEM_NAMES = frozenset((
    "MachineDoc", "WiringDoc", "SystemDoc", "BatteryDoc", "AttackDoc",
    "ScenarioDoc", "load_kb_dir"))
_WRITER_NAMES = frozenset((
    "box_data", "machine_data", "expr_data", "wiring_data", "dump_machine",
    "collect_boxes", "dump_system"))


def __getattr__(name: str):
    if name == "FincatDoc":
        from . import fincat
        return fincat.FincatDoc
    if name in _SYSTEM_NAMES:
        from . import systemformat
        return getattr(systemformat, name)
    if name in _WRITER_NAMES:
        from . import writers
        return getattr(writers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
