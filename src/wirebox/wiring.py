"""Boxes and wiring diagrams.

A box is an interface: named input ports and named output ports, each
carrying a finite alphabet.  A wiring connects a list of inner boxes to a
list of outer boxes by saying, for every inner input port, where its value
comes from, and for every outer output port, where its value comes from.
Sources are expressions over outer input ports, inner output ports,
constants, and finite lookup tables of those.

A wiring is its normal form: the constructor puts every source
expression in canonical form, so structural equality is wiring
equality.  Wirings compose like processes with feedback: ``compose(g,
f)`` plugs the inner assembly ``f`` into the hole ``g`` expects, and
``tensor`` places wirings side by side.  Both are implemented by
substitution on source expressions; ``compose`` normalizes what it
substitutes, and a tensor of normal forms is one.  ``precompose_slot``
reroutes one inner box through an endomorphism of it: its result is
``compose(g, tensor(pads))``, with identity pads on the other boxes,
computed by substitution into only the expressions the endomorphism
changes, and that general composite is its reference.  Nested
decompositions need no type of their own: a composite of composites is
one wiring, built by ``compose`` and ``tensor``.

Substituting valid wirings into one another cannot make an invalid
wiring.  So only the public constructor validates; ``identity_wiring``,
``tensor``, ``compose`` and ``precompose_slot`` build their results
without the check.

All evaluation runs on compiled expressions: every port reference
becomes a position in one flat tuple of values, and every table one
dict.  The positions depend on the boundary alone, so they are kept on
the wiring and a rewire takes its base's.  The composite machines of
``moore.apply_algebra`` route through a whole wiring compiled once
(``_Routing``), one function per component, and kept on the wiring, so
every composite of one wiring object shares it; a rewire by
``precompose_slot`` takes its base's and compiles again only the
components it gives a new entry.  Normalization compiles each
expression over the values of the references it reads.
``oracle.eval_equal`` checks the compiled routing against the source
expressions, read by the reference's own evaluator.

Directionality is enforced by the expression variants themselves: an inner
input may read outer inputs and inner outputs; an outer output may read
only inner outputs.  Nothing can read an outer output, so composites are
always well founded.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Mapping, Sequence, Union

from . import Record, WireboxError, _kept

Symbol = str


class WiringError(WireboxError):
    """Malformed box, expression, or wiring."""


class CompositionError(WiringError):
    """Boundary mismatch between wirings."""


# ---------------------------------------------------------------------------
# interfaces
# ---------------------------------------------------------------------------

class Port(Record):
    """A named port with a finite, ordered alphabet of symbols."""

    name: str
    alphabet: tuple[Symbol, ...]

    def __post_init__(self):
        if not self.name:
            raise WiringError("port name must be nonempty")
        if not self.alphabet:
            raise WiringError(f"port {self.name!r} has an empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise WiringError(f"port {self.name!r} repeats alphabet symbols")


class Box(Record):
    """An interface: input ports and output ports."""

    name: str
    in_ports: tuple[Port, ...]
    out_ports: tuple[Port, ...]

    def __post_init__(self):
        for side, ports in (("input", self.in_ports), ("output", self.out_ports)):
            names = [p.name for p in ports]
            if len(set(names)) != len(names):
                raise WiringError(f"box {self.name!r} repeats {side} port names")

    def in_port(self, name: str) -> Port:
        for p in self.in_ports:
            if p.name == name:
                return p
        raise WiringError(f"box {self.name!r} has no input port {name!r}")

    def out_port(self, name: str) -> Port:
        for p in self.out_ports:
            if p.name == name:
                return p
        raise WiringError(f"box {self.name!r} has no output port {name!r}")


def input_space(boxes: Sequence[Box]) -> list[tuple[Symbol, ...]]:
    """All joint input tuples for a list of boxes, in declared alphabet order.

    The tuple is flat: one entry per input port, boxes in list order, ports
    in declaration order.
    """
    alphabets = [p.alphabet for b in boxes for p in b.in_ports]
    return [tuple(t) for t in itertools.product(*alphabets)]


# ---------------------------------------------------------------------------
# source expressions
# ---------------------------------------------------------------------------

class OuterIn(Record):
    """The value on an outer box's input port."""

    box: int
    port: str


class InnerOut(Record):
    """The value on an inner box's output port."""

    box: int
    port: str


class Const(Record):
    """A fixed symbol, independent of every port."""

    symbol: Symbol


class Table(Record):
    """A total lookup over the values of its source expressions.

    ``entries`` maps one key per joint source value to a symbol; keys are
    kept sorted so that equal tables are structurally equal.
    """

    sources: tuple["SourceExpr", ...]
    entries: tuple[tuple[tuple[Symbol, ...], Symbol], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        keys = [k for k, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise WiringError("table repeats a key")

    def function(self) -> dict[tuple[Symbol, ...], Symbol]:
        return dict(self.entries)


SourceExpr = Union[OuterIn, InnerOut, Const, Table]
Ref = Union[OuterIn, InnerOut]
PortKey = tuple[int, str]


def expr_refs(expr: SourceExpr) -> list[Ref]:
    """Port references occurring in an expression, in first-occurrence order."""
    out: list[Ref] = []
    # depth first, sources left to right; a loop, since a recursive
    # closure would leave a reference cycle behind on every call
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (OuterIn, InnerOut)):
            if e not in out:
                out.append(e)
        elif isinstance(e, Table):
            stack.extend(reversed(e.sources))
    return out


# ---------------------------------------------------------------------------
# wirings
# ---------------------------------------------------------------------------

class Wiring(Record):
    """A morphism from a tensor of inner boxes to a tensor of outer boxes.

    ``in_map`` has exactly one entry per inner input port, keyed by
    (inner box index, port name); sources may reference outer inputs and
    inner outputs.  ``out_map`` has one entry per outer output port, keyed
    by (outer box index, port name); sources may reference inner outputs
    only.  Construction validates totality and alphabet compatibility, so
    an invalid wiring is never observable, then stores every source
    expression's normal form, in the maps' key order.  The algebra's
    results are valid and normal by construction and are built by
    ``Record._built`` without re-validation, from tuples and dicts of
    the algebra's own; a property test rebuilds each of them through
    this validating constructor.  So equality, which compares the
    normal forms, is wiring equality: two wirings are equal exactly when
    they route every value alike.
    """

    inner: tuple[Box, ...]
    outer: tuple[Box, ...]
    in_map: Mapping[PortKey, SourceExpr]
    out_map: Mapping[PortKey, SourceExpr]

    def __post_init__(self):
        object.__setattr__(self, "inner", tuple(self.inner))
        object.__setattr__(self, "outer", tuple(self.outer))
        object.__setattr__(self, "in_map", dict(self.in_map))
        object.__setattr__(self, "out_map", dict(self.out_map))
        self._validate()
        _normal_form(self)

    def _validate(self):
        sides = (("in_map", "inner input", self.in_map,
                  self.inner_input_ports(), True),
                 ("out_map", "outer output", self.out_map,
                  self.outer_output_ports(), False))
        for label, what, table, ports, _ in sides:
            want = {(i, p.name) for i, p in ports}
            if want != table.keys():
                missing = sorted(want - table.keys())
                extra = sorted(table.keys() - want)
                raise WiringError(
                    f"{label} must cover {what} ports exactly; "
                    f"missing {missing}, extra {extra}")
        for label, what, table, ports, allow_outer in sides:
            target = {(i, p.name): p for i, p in ports}
            for (i, name), expr in table.items():
                self._check_expr(expr, target[(i, name)], f"{what} {i}.{name}",
                                 allow_outer)

    def _ref_port(self, ref: Ref, where: str, allow_outer: bool) -> Port:
        if isinstance(ref, OuterIn):
            if not allow_outer:
                raise WiringError(
                    f"{where}: outer inputs may not feed outer outputs")
            if not 0 <= ref.box < len(self.outer):
                raise WiringError(f"{where}: no outer box {ref.box}")
            return self.outer[ref.box].in_port(ref.port)
        if not 0 <= ref.box < len(self.inner):
            raise WiringError(f"{where}: no inner box {ref.box}")
        return self.inner[ref.box].out_port(ref.port)

    def _check_expr(self, expr: SourceExpr, target: Port, where: str,
                    allow_outer: bool):
        values = self._values(expr, where, allow_outer)
        bad = [v for v in values if v not in target.alphabet]
        if not bad:
            return
        alphabet = list(target.alphabet)
        if isinstance(expr, Const):
            raise WiringError(f"{where}: constant {expr.symbol!r} is not in "
                              f"the target alphabet {alphabet}")
        if isinstance(expr, Table):
            key = next(k for k, v in expr.entries if v == bad[0])
            raise WiringError(
                f"{where}: table value {bad[0]!r} at key {key} is not in the "
                f"target alphabet {alphabet}")
        raise WiringError(
            f"{where}: source alphabet {list(values)} is not contained in "
            f"target alphabet {alphabet}")

    def _values(self, expr: SourceExpr, where: str,
                allow_outer: bool) -> tuple[Symbol, ...]:
        """The values ``expr`` can take, in first-occurrence order, once
        its references and every key of its tables, nested tables
        included, are checked."""
        if isinstance(expr, Const):
            return (expr.symbol,)
        if isinstance(expr, (OuterIn, InnerOut)):
            return self._ref_port(expr, where, allow_outer).alphabet
        if not isinstance(expr, Table):
            raise WiringError(f"{where}: not a source expression: {expr!r}")
        domains = [self._values(s, where, allow_outer) for s in expr.sources]
        fn = expr.function()
        for key in itertools.product(*domains):
            if key not in fn:
                raise WiringError(f"{where}: table misses key {key}")
        return tuple(dict.fromkeys(v for _, v in expr.entries))

    # -- port enumeration, document order ----------------------------------

    def inner_input_ports(self) -> list[tuple[int, Port]]:
        return [(i, p) for i, b in enumerate(self.inner) for p in b.in_ports]

    def inner_output_ports(self) -> list[tuple[int, Port]]:
        return [(i, p) for i, b in enumerate(self.inner) for p in b.out_ports]

    def outer_input_ports(self) -> list[tuple[int, Port]]:
        return [(j, p) for j, b in enumerate(self.outer) for p in b.in_ports]

    def outer_output_ports(self) -> list[tuple[int, Port]]:
        return [(j, p) for j, b in enumerate(self.outer) for p in b.out_ports]


def identity_wiring(box: Box) -> Wiring:
    """The identity: one inner copy of the box, wires straight through."""
    in_map = {(0, p.name): _read(OuterIn(0, p.name), p) for p in box.in_ports}
    out_map = {(0, p.name): _read(InnerOut(0, p.name), p)
               for p in box.out_ports}
    return Wiring._built((box,), (box,), in_map, out_map)


def identity_of(boxes: Sequence[Box]) -> Wiring:
    """Identity on a tensor of boxes."""
    return tensor([identity_wiring(b) for b in boxes])


def tensor(wirings: Sequence[Wiring]) -> Wiring:
    """Place wirings side by side, concatenating inner and outer boxes.

    A tensor of normal forms is one: shifting the references keeps
    their flat-position order.
    """
    if not wirings:
        raise WiringError("tensor of no wirings")
    inner: list[Box] = []
    outer: list[Box] = []
    in_map: dict[PortKey, SourceExpr] = {}
    out_map: dict[PortKey, SourceExpr] = {}
    for w in wirings:
        di, do = len(inner), len(outer)
        inner.extend(w.inner)
        outer.extend(w.outer)

        def shift(r: Ref) -> Ref:
            return type(r)(r.box + (di if isinstance(r, InnerOut) else do), r.port)

        for (i, name), expr in w.in_map.items():
            in_map[(i + di, name)] = _substitute(expr, shift)
        for (j, name), expr in w.out_map.items():
            out_map[(j + do, name)] = _substitute(expr, shift)
    return Wiring._built(tuple(inner), tuple(outer), in_map, out_map)


def _substitute(expr: SourceExpr, sub: Callable[[Ref], SourceExpr]) -> SourceExpr:
    """``expr`` with every port reference replaced by ``sub`` of it."""
    if isinstance(expr, (OuterIn, InnerOut)):
        return sub(expr)
    if isinstance(expr, Table):
        return Table(tuple(_substitute(s, sub) for s in expr.sources), expr.entries)
    return expr


def compose(g: Wiring, f: Wiring) -> Wiring:
    """Plug ``f`` into ``g``: first ``f``, then ``g``.

    Requires f's outer boundary to equal g's inner boundary box for box.
    Implemented by substitution: where g reads its outer inputs it now
    reads through f's out_map, and where f reads its outer inputs it now
    reads through g's in_map.  The substituted wiring is normalized.
    """
    if len(f.outer) != len(g.inner):
        raise CompositionError(
            f"boundary mismatch: {len(f.outer)} outer boxes vs "
            f"{len(g.inner)} inner boxes")
    for k, (a, b) in enumerate(zip(f.outer, g.inner)):
        if a != b:
            detail = _box_mismatch(a, b)
            raise CompositionError(f"boundary box {k}: {detail}")

    def via_f(ref: Ref) -> SourceExpr:
        # g-side reference: inner outputs of g are outer outputs of f
        if isinstance(ref, InnerOut):
            return f.out_map[(ref.box, ref.port)]
        return ref

    def via_g(ref: Ref) -> SourceExpr:
        # f-side reference: outer inputs of f are inner inputs of g
        if isinstance(ref, OuterIn):
            return _substitute(g.in_map[(ref.box, ref.port)], via_f)
        return ref

    in_map = {key: _substitute(expr, via_g) for key, expr in f.in_map.items()}
    out_map = {key: _substitute(expr, via_f) for key, expr in g.out_map.items()}
    return _normal_form(Wiring._built(f.inner, g.outer, in_map, out_map))


def precompose_slot(g: Wiring, index: int, endo: Wiring) -> Wiring:
    """``g`` with inner box ``index`` rerouted through ``endo``, an
    endomorphism of that box: ``compose(g, tensor(pads))``, where the
    pads are the identity on every inner box but ``endo`` at ``index``.

    The result is that composite, key order included; ``compose`` stays
    its reference.  It takes g's entries as the same objects and
    normalizes the slot's inputs from endo's; only when endo remaps an
    output of the slot does it look for the entries that read one, and
    substitute into those.  When g's routing is compiled, the result's
    is g's with the components given a new entry compiled again.
    """
    if not 0 <= index < len(g.inner):
        raise CompositionError(f"no inner box {index}")
    box = g.inner[index]
    if endo.inner != (box,) or endo.outer != (box,):
        raise CompositionError(
            f"not an endomorphism of inner box {index} {box.name!r}")
    # the slot's outputs that endo remaps, and what each one now reads
    remapped = {InnerOut(index, q): _substitute(
                    expr, lambda r: InnerOut(index, r.port))
                for (_, q), expr in endo.out_map.items()
                if expr != InnerOut(0, q)}
    at = _kept(g, "_positions", _positions)
    g_in = g.in_map

    def via_endo(ref: Ref) -> SourceExpr:
        return remapped.get(ref, ref)

    def via_g(ref: Ref) -> SourceExpr:
        # endo's inner outputs are the slot's; its outer inputs read
        # what g feeds the slot
        if isinstance(ref, InnerOut):
            return InnerOut(index, ref.port)
        return _substitute(g_in[(index, ref.port)], via_endo)

    # the slot's inputs in endo's key order, every other box's in port order
    own = {(index, name): _normalize_expr(g, at, _substitute(expr, via_g))
           for (_, name), expr in endo.in_map.items()}
    redo = {index} if any(e is not g_in[k] for k, e in own.items()) else set()
    in_map: dict[PortKey, SourceExpr] = {}
    for k, b in enumerate(g.inner):
        if k == index:
            in_map.update(own)
        else:
            for p in b.in_ports:
                in_map[(k, p.name)] = g_in[(k, p.name)]
    out_map = dict(g.out_map)
    # the entries that read an output endo remaps, which are substituted;
    # a normal form's table reads references only
    touched = [(side, key) for side in ((in_map, out_map) if remapped else ())
               for key, e in side.items() if side is out_map or key[0] != index
               if any(r in remapped for r in (
                   e.sources if isinstance(e, Table) else (e,)))]
    for side, key in touched:
        side[key] = _normalize_expr(g, at, _substitute(side[key], via_endo))
    redo.update(key[0] for side, key in touched if side is in_map)
    n = Wiring._built(g.inner, g.outer, in_map, out_map)
    # n has g's boundary, so g's positions are n's
    object.__setattr__(n, "_positions", at)
    if hasattr(g, "_routing"):
        object.__setattr__(n, "_routing", _Routing(
            n, g._routing, redo, any(side is out_map for side, _ in touched)))
    return n


def _box_mismatch(a: Box, b: Box) -> str:
    """Where two boxes that differ first differ: name, port count, port
    name or alphabet, inputs before outputs."""
    if a.name != b.name:
        return f"box {a.name!r} vs {b.name!r}"
    for side, pa, pb in (("input", a.in_ports, b.in_ports),
                         ("output", a.out_ports, b.out_ports)):
        if len(pa) != len(pb):
            return f"box {a.name!r} has {len(pa)} vs {len(pb)} {side} ports"
        for x, y in zip(pa, pb):
            if x.name != y.name:
                return f"{side} port {x.name!r} vs {y.name!r} on box {a.name!r}"
            if x.alphabet != y.alphabet:
                return (f"{side} port {x.name!r} on box {a.name!r}: alphabet "
                        f"{list(x.alphabet)} vs {list(y.alphabet)}")


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------

def _positions(w: Wiring) -> dict[Ref, int]:
    """Every port reference's place in the flat value tuple: the inner
    outputs in document order, then the outer inputs.

    It depends on the boundary alone, so it is kept on the wiring
    (``_kept``) and handed on to a rewire of it (``precompose_slot``).
    """
    refs = [InnerOut(i, p.name) for i, p in w.inner_output_ports()]
    refs += [OuterIn(j, p.name) for j, p in w.outer_input_ports()]
    return {r: k for k, r in enumerate(refs)}


class _Routing:
    """A wiring in normal form compiled to index-based routing.

    Values travel as one flat tuple: the inner output values in document
    order, then the outer input values, so every port reference is a
    position in it.  ``slots`` holds one function of that tuple per inner
    box, giving its input tuple, and ``outer_out`` one giving the outer
    outputs.  ``reads_outer`` flags the inner boxes whose inputs mention
    an outer input, read off the normal forms; the others, like
    ``outer_out``, read only the inner output prefix.
    """

    __slots__ = ("slots", "outer_out", "reads_outer")

    def __init__(self, w: Wiring, base: _Routing | None = None,
                 redo=(), redo_out: bool = False):
        """Compile ``w``; or, given ``base``, the routing of a wiring
        whose entries are w's but in the inner boxes ``redo`` and, with
        ``redo_out``, the outer outputs: take base's functions and flags
        and compile only those."""
        at = _kept(w, "_positions", _positions)
        slots = list(base.slots) if base else [None] * len(w.inner)
        reads_outer = list(base.reads_outer) if base else [False] * len(w.inner)
        for i in redo if base else range(len(w.inner)):
            exprs = [w.in_map[(i, p.name)] for p in w.inner[i].in_ports]
            slots[i] = _compile_tuple(exprs, at)
            reads_outer[i] = any(
                type(e) is OuterIn or type(e) is Table
                and any(type(r) is OuterIn for r in e.sources) for e in exprs)
        self.outer_out = (base.outer_out if base and not redo_out else
                          _compile_tuple([w.out_map[(j, p.name)] for j, p
                                          in w.outer_output_ports()], at))
        self.slots = tuple(slots)
        self.reads_outer = tuple(reads_outer)


def _compile_tuple(exprs: Sequence[SourceExpr],
                   at: Mapping[Ref, int]) -> Callable[[tuple], tuple]:
    """The tuple of ``exprs``' values as a function of the flat value
    tuple: one ``itemgetter`` for two or more bare references, else one
    call per expression, spelt out for one or two of them."""
    if len(exprs) > 1 and all(isinstance(e, (OuterIn, InnerOut)) for e in exprs):
        return operator.itemgetter(*(at[e] for e in exprs))
    fs = [_compile_expr(e, at) for e in exprs]
    if len(fs) == 1:
        f, = fs
        return lambda values: (f(values),)
    if len(fs) == 2:
        f, g = fs
        return lambda values: (f(values), g(values))
    return lambda values: tuple([f(values) for f in fs])


def _compile_expr(expr: SourceExpr,
                  at: Mapping[Ref, int]) -> Callable[[tuple], Symbol]:
    """``expr`` as a function of the flat value tuple.

    A validated wiring lists every key its tables can meet, so on values
    inside the port alphabets every lookup hits.
    """
    if isinstance(expr, Const):
        symbol = expr.symbol
        return lambda values: symbol
    if isinstance(expr, (OuterIn, InnerOut)):
        return operator.itemgetter(at[expr])
    if isinstance(expr, Table):
        table = expr.function()
        if expr.sources and all(isinstance(s, (OuterIn, InnerOut))
                                for s in expr.sources):
            get = operator.itemgetter(*(at[s] for s in expr.sources))
            if len(expr.sources) == 1:
                # an itemgetter of one position gives the value, not a 1-tuple
                table = {key[0]: value for key, value in table.items()}
            return lambda values: table[get(values)]
        subs = tuple(_compile_expr(s, at) for s in expr.sources)
        return lambda values: table[tuple([f(values) for f in subs])]
    raise WiringError(f"not a source expression: {expr!r}")


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def _normalize_expr(w: Wiring, at: Mapping[Ref, int],
                    expr: SourceExpr) -> SourceExpr:
    """Canonical form: Const, a bare reference, or a flat minimal Table
    over the references the value depends on, in flat-position order
    (inner outputs, then outer inputs, each by box and port position)."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, (OuterIn, InnerOut)):
        return _read(expr, w._ref_port(expr, "", True))
    refs = sorted(expr_refs(expr), key=at.__getitem__)
    # compiled over the references' own value tuple, one point per row
    fn = _compile_expr(expr, {r: k for k, r in enumerate(refs)})
    alphabets = [w._ref_port(r, "", True).alphabet for r in refs]
    rows = [(combo, fn(combo)) for combo in itertools.product(*alphabets)]
    keep: list[int] = []
    for i in range(len(refs)):
        # the value depends on refs[i] when two rows that differ only
        # there differ in value
        first: dict[tuple[Symbol, ...], Symbol] = {}
        for key, value in rows:
            if first.setdefault(key[:i] + key[i + 1:], value) != value:
                keep.append(i)
                break
    if not keep:
        return Const(rows[0][1])
    kept_refs = tuple(refs[i] for i in keep)
    entries: dict[tuple[Symbol, ...], Symbol] = {}
    for key, value in rows:
        entries[tuple(key[i] for i in keep)] = value
    if len(kept_refs) == 1 and all(k[0] == v for k, v in entries.items()):
        return kept_refs[0]
    return Table(kept_refs, tuple(entries.items()))


def _read(ref: Ref, port: Port) -> SourceExpr:
    """A reference to ``port`` in normal form: the one symbol of a
    one-symbol port, which is all it can read, else the reference."""
    return Const(port.alphabet[0]) if len(port.alphabet) == 1 else ref


def _normal_form(w: Wiring) -> Wiring:
    """``w`` with every source expression put in canonical form, in
    place and in key order, for the constructor and ``compose``."""
    at = _kept(w, "_positions", _positions)
    for side in ("in_map", "out_map"):
        object.__setattr__(w, side, {key: _normalize_expr(w, at, expr)
                                     for key, expr in getattr(w, side).items()})
    return w
