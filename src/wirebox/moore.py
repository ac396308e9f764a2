"""Moore machines inhabiting boxes, and how wirings act on them.

A machine fills a box: its inputs are joint values on the box's input
ports, its outputs joint values on the output ports, and its output
depends on the current state only.  Outputs are read before the step:
running a machine on a word of length n yields the readouts of the states
reached after 0..n-1 inputs.

``apply_algebra`` is the heart: given a wiring from inner boxes to one
outer box and a machine per inner box, it builds the composite machine on
the outer box.  States are tuples of component states; at each step the
wiring routes current component readouts and outer inputs to component
inputs, and every component steps at once.  A machine is checked when
``MooreMachine(...)`` builds it, so every machine is total and a
composite is built unchecked.  The wiring's routing is compiled once
per wiring.  Nothing the size of the product is built: ``states`` is
a read-only sequence over the component state sets, and the rows of
``update`` and ``readout`` are routed on demand, a state's rows in both
tables at once: those of the states reachable from ``init`` when the
composite is built, and any other state's on the first lookup of one of
its rows, where an update lookup routes its updates alone.  Each table
is a ``dict`` of the rows routed so far, so a routed row is read by
dict's own lookup, and it reads as a read-only mapping over the whole
product that lists its keys in product order without routing a row.
A reader that walks the whole product (iterating ``states`` or a table,
so validating, rendering, dumping, comparing or checking morphisms)
refuses a product of more than ``MAX_TRANSITIONS`` transitions; building
refuses a reachable part of more than that many, and stepping and
running never refuse.
Building also numbers the reachable part breadth first (``_Numbering``);
``run``, ``validate_machine`` and ``probes``' walks step those integers,
not the tables, and another machine is numbered on its first such read.
``lift_hom`` lifts machine morphisms along a wiring, given the two
composites it makes of their sources and of their targets: the lifted
state map acts componentwise, is read-only and maps a state on lookup,
so lifting, like building, costs the reachable parts alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from typing import Union

from . import Record, WireboxError, _kept
from .wiring import Box, Symbol, Wiring, _box_mismatch, _Routing, input_space

State = Union[str, tuple]


class MachineError(WireboxError):
    """Malformed machine, morphism, or step on undefined data."""


class MooreMachine(Record):
    """A finite state machine with state-determined output.

    ``states`` is a tuple, or a composite's read-only product sequence;
    ``update`` maps (state, input tuple) to the next state; ``readout``
    maps a state to its output tuple.  Tables are plain dicts, or a
    composite's dict subclasses routed on demand, which read as
    read-only mappings over the whole product (see ``apply_algebra``
    and ``_Table``).  Construction raises MachineError with the first
    of ``_machine_errors``, so every machine is total; it skips the
    reachability pass, which only warns (``validate_machine``).  What
    ``apply_algebra`` builds is valid by construction and skips the check
    (``Record._built``).  A copy of a composite made through this
    constructor walks its whole product, so it meets ``MAX_TRANSITIONS``.

    Tables are never mutated after construction; to change one, build a
    new machine.  Four caches rely on this: the composite a system keeps
    (``CompositeSystem.composite``), the canonical text that
    ``fingerprints.fingerprint_components`` keeps on the machine (``_kept``),
    the table of test outcomes that ``probes.run_test`` keeps on the
    machine (``_kept``), and the numbering of its reachable part
    (``_numbered``).
    """

    box: Box
    states: Sequence[State]
    init: State
    update: Mapping[tuple[State, tuple[Symbol, ...]], State]
    readout: Mapping[State, tuple[Symbol, ...]]

    def __post_init__(self):
        if not isinstance(self.states, _Product):
            object.__setattr__(self, "states", tuple(self.states))
        for name in ("update", "readout"):
            table = getattr(self, name)
            if not isinstance(table, _Table):
                object.__setattr__(self, name, dict(table))
        errors = _machine_errors(self)
        if errors:
            raise MachineError(errors[0])

    def inputs(self) -> list[tuple[Symbol, ...]]:
        return input_space([self.box])


def render_state(s: State) -> str:
    """Canonical display form; composite states come out as (a,b,...)."""
    if isinstance(s, tuple):
        try:
            return "(" + ",".join(s) + ")"
        except TypeError:  # a nested tuple
            return "(" + ",".join(render_state(x) for x in s) + ")"
    return s


def validate_machine(m: MooreMachine) -> tuple[str, ...]:
    """The warnings a machine has: one for each state declared but not
    reachable from the initial state.

    Everything else a machine could get wrong is refused when it is
    built (``_machine_errors``).  It reads every state, so a composite's
    product over the limit refuses it before its numbering is read.
    """
    states = iter(m.states)
    seen = _numbered(m).index
    return tuple(f"state {render_state(s)} is unreachable"
                 for s in states if s not in seen)


def _machine_errors(m: MooreMachine) -> list[str]:
    """Every way ``m`` fails to be a total machine on its box, in a fixed
    order; the constructor refuses a machine with the first."""
    errors: list[str] = []
    states = set(m.states)
    if len(states) != len(m.states):
        errors.append("machine repeats a state")
    if m.init not in states:
        errors.append(f"initial state {render_state(m.init)} is not a state")
    inputs = m.inputs()
    input_set = set(inputs)
    out_alphabets = [p.alphabet for p in m.box.out_ports]
    for s in m.states:
        r = m.readout.get(s)
        if r is None:
            errors.append(f"readout missing for state {render_state(s)}")
        else:
            if len(r) != len(out_alphabets):
                errors.append(
                    f"readout of {render_state(s)} has {len(r)} values for "
                    f"{len(out_alphabets)} output ports")
            else:
                for v, alph, p in zip(r, out_alphabets, m.box.out_ports):
                    if v not in alph:
                        errors.append(
                            f"readout of {render_state(s)} puts {v!r} on port "
                            f"{p.name} outside its alphabet")
        for x in inputs:
            t = m.update.get((s, x))
            if t is None:
                errors.append(
                    f"update missing for state {render_state(s)} on input {x}")
            elif t not in states:
                errors.append(
                    f"update of {render_state(s)} on {x} leaves the state set")
    for (s, x) in m.update:
        if s not in states:
            errors.append(f"update table keys unknown state {render_state(s)}")
        elif x not in input_set:
            errors.append(
                f"update table keys state {render_state(s)} with a tuple {x} "
                f"outside the input space")
    for s in m.readout:
        if s not in states:
            errors.append(f"readout table keys unknown state {render_state(s)}")
    return errors


def _missing_row(m: MooreMachine, s: State, inputs) -> MachineError:
    """The error naming the first row of state ``s`` that ``m`` lacks:
    its readout, then its updates in ``inputs`` order.

    Call it after a lookup of one of those rows missed: a machine is
    total, so ``s`` or an input is not the machine's.
    """
    if s not in m.readout:
        return MachineError(f"no readout for state {render_state(s)}")
    x = next(x for x in inputs if (s, x) not in m.update)
    return MachineError(f"no update for state {render_state(s)} on input {x}")


def run(m: MooreMachine, word: Sequence[Sequence[Symbol]]) -> list[tuple[Symbol, ...]]:
    """Outputs along a word: readout of the state before each input.

    A word holding an input outside the input space raises the
    MachineError of ``_missing_row``.
    """
    num = _numbered(m)
    succ, readouts, column = num.succ, num.readouts, num.column
    n, k = len(column), 0
    outs: list[tuple[Symbol, ...]] = []
    try:
        for x in word:
            x = tuple(x)
            outs.append(readouts[k])
            k = succ[k * n + column[x]]
    except KeyError:
        raise _missing_row(m, num.states[k], (x,)) from None
    return outs


class _Numbering:
    """A reachable part numbered breadth first from ``init``, state 0,
    successors in ``input_space`` order: state k is ``states[k]``, with
    ``index[states[k]] == k`` and readout ``readouts[k]``; input j of n,
    ``column[input] == j``, leads it to state ``succ[k * n + j]``."""

    __slots__ = ("states", "index", "succ", "readouts", "column")

    def __init__(self, states, index, succ, readouts, column):
        self.states, self.index, self.succ = states, index, succ
        self.readouts, self.column = readouts, column


def _number(init: State, row, inputs: Sequence,
            most: float = math.inf) -> _Numbering:
    """The numbering from ``init``, given ``row(s)``, a state's readout
    and its successors in ``inputs`` order; refused with a MachineError
    once it has found more than ``most`` states."""
    states, index, succ, readouts = [init], {init: 0}, [], []
    for s in states:
        if len(states) > most:
            raise _over_the_limit("composite reaches at least", len(states),
                                  len(inputs))
        out, nexts = row(s)
        readouts.append(out)
        for t in nexts:
            k = index.setdefault(t, len(states))
            if k == len(states):
                states.append(t)
            succ.append(k)
    return _Numbering(states, index, succ, readouts,
                      dict(zip(inputs, range(len(inputs)))))


def _numbered(m: MooreMachine) -> _Numbering:
    """``m``'s numbering: a composite's, built with it, or one built by
    table lookups on the first call and kept on ``m`` (``_kept``)."""
    return _kept(m, "_numbering", _number_by_lookup)


def _number_by_lookup(m: MooreMachine) -> _Numbering:
    update, readout, inputs = m.update, m.readout, m.inputs()
    return _number(m.init, lambda s: (
        readout[s], [update[(s, x)] for x in inputs]), inputs)


# ---------------------------------------------------------------------------
# the algebra: wirings act on machine lists
# ---------------------------------------------------------------------------

def _machines_fit(w: Wiring, machines: Sequence[MooreMachine]):
    if len(w.outer) != 1:
        raise MachineError(
            f"composite machines inhabit a single box; wiring has "
            f"{len(w.outer)} outer boxes")
    if len(machines) != len(w.inner):
        raise MachineError(
            f"wiring has {len(w.inner)} inner boxes but {len(machines)} "
            f"machines were given")
    for i, (b, m) in enumerate(zip(w.inner, machines)):
        if m.box != b:
            raise MachineError(f"machine {i} does not fit wiring slot {i}: "
                               f"{_box_mismatch(m.box, b)}")


# a reader refuses to walk a composite with more transitions than this;
# probes' pair search and trace quotients refuse to hold more
MAX_TRANSITIONS = 2 ** 20


def apply_algebra(w: Wiring, machines: Sequence[MooreMachine]) -> MooreMachine:
    """The composite machine a wiring induces on its outer box.

    Composite states are tuples of component states, and ``states`` is
    their full product, in product order, as a read-only sequence that
    stores no composite state (see ``_Product``).  A step routes the
    component readouts and the outer input into each component's input
    tuple, then updates every component on it; the composite readout
    routes component readouts through the out_map.

    The components were checked when built and the wiring when built, so
    every routed row exists and the composite is built unchecked
    (``Record._built``).  The wiring is compiled on its first
    composite and the compiled routing kept on it (``_kept``), so a
    wiring object is compiled once however many composites it makes;
    they share the routing, which holds no table.  The rows of the
    states reachable from ``init`` are routed here, by a breadth-first
    search from ``init`` that numbers them (``_Numbering``); any other
    state's rows are routed on the first lookup of one of them, its
    readout and updates on a readout lookup, its updates alone on an
    update lookup.  A routed row is read by dict's own lookup (see
    ``_Table``).  Within one state, components fed only by inner outputs
    are routed once, then the others per outer input.
    Either table lists its keys in product order, and counts them,
    without routing a row; reading its values (``items``, ``values``,
    ``==``, ``repr``) routes the rows read.

    Building costs the reachable part alone, whatever the product's size,
    and is refused with a MachineError once the search has found more
    than ``MAX_TRANSITIONS`` transitions (states times outer inputs), so
    it never routes more rows than that.  Walking the whole product,
    through ``states`` or either table, is refused with the same error
    when the product has more than ``MAX_TRANSITIONS`` transitions.
    """
    _machines_fit(w, machines)
    outer = w.outer[0]
    routing = _kept(w, "_routing", _Routing)
    states = _Product(tuple(m.states for m in machines),
                      math.prod(len(p.alphabet) for p in outer.in_ports))
    init = tuple(m.init for m in machines)
    router = _Router(routing, machines, states, outer)
    update = _UpdateTable(router)
    readout = _ReadoutTable(router, update)
    m = MooreMachine._built(outer, states, init, update, readout)
    object.__setattr__(m, "_numbering", _number(
        init, lambda s: router.fill(s, update, readout), router.inputs,
        MAX_TRANSITIONS // len(router.inputs)))
    return m


def _over_the_limit(has: str, n: int, n_inputs: int,
                    what: str = "states") -> MachineError:
    return MachineError(
        f"{has} {n} {what} x {n_inputs} inputs = "
        f"{n * n_inputs} transitions, over the limit of {MAX_TRANSITIONS}")


class _Product(Sequence):
    """A composite's state set: the product of its components' state
    sets, in product order, stored as those sets alone.

    ``len``, ``in`` and indexing (mixed radix, last component fastest)
    cost a few operations each; ``==`` and ``hash`` agree with the equal
    tuple's.  Iteration, and so everything that walks the whole product
    (``hash``, ``repr``, ``==`` against a differing product, a table's
    iteration, validation, rendering, morphism checks), raises
    MachineError when the composite has more than ``MAX_TRANSITIONS``
    transitions, ``n_inputs`` per state.
    """

    __slots__ = ("_parts", "_members", "_n_inputs", "_len")

    def __init__(self, parts: tuple[Sequence[State], ...], n_inputs: int):
        self._parts = parts
        self._members = [frozenset(p) for p in parts]
        self._n_inputs = n_inputs
        self._len = math.prod(map(len, parts))

    def __len__(self) -> int:
        return self._len

    def __contains__(self, s) -> bool:
        return (isinstance(s, tuple) and len(s) == len(self._members)
                and all(map(operator.contains, self._members, s)))

    def __iter__(self):
        if self._len * self._n_inputs > MAX_TRANSITIONS:
            raise _over_the_limit("composite would have", self._len,
                                  self._n_inputs)
        return itertools.product(*self._parts)

    def __getitem__(self, k: int) -> tuple:
        k = operator.index(k)
        if not -self._len <= k < self._len:
            raise IndexError("composite state index out of range")
        k %= self._len
        digits = []
        for p in reversed(self._parts):
            k, d = divmod(k, len(p))
            digits.append(p[d])
        return tuple(reversed(digits))

    def __eq__(self, other):
        if isinstance(other, _Product) and self._parts == other._parts:
            return True
        if not isinstance(other, (tuple, _Product)):
            return NotImplemented
        return (self._len == len(other) and
                all(map(operator.eq, itertools.product(*self._parts), other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Router:
    """Routes a composite's rows one state at a time, into the tables
    it is handed.

    It holds the compiled wiring and the component tables but no table
    of the composite, so the tables that hold it form no reference
    cycle, and a dead composite is freed by refcounting.
    """

    __slots__ = ("states", "is_state", "inputs", "_readouts", "_outer_out",
                 "_fixed", "_varying")

    def __init__(self, routing: _Routing, machines: Sequence[MooreMachine],
                 states: _Product, outer: Box):
        self.states = states
        # is s a composite state, one of the product's tuples?
        self.is_state = states.__contains__
        self.inputs = input_space([outer])
        self._readouts = [m.readout for m in machines]
        self._outer_out = routing.outer_out
        # (slot, its input function, its update table); slots that read
        # an outer input are routed per outer input, the rest once per state
        slots = [(i, f, m.update)
                 for i, (f, m) in enumerate(zip(routing.slots, machines))]
        self._fixed = [t for t in slots if not routing.reads_outer[t[0]]]
        self._varying = [t for t in slots if routing.reads_outer[t[0]]]

    def fill(self, s: State, update: dict, readout: dict | None = None
             ) -> tuple:
        """Route composite state ``s``: store its update rows in
        ``update``, and its readout in ``readout`` when given; return its
        readout and its successors, one per outer input in order.

        The components are total and the wiring routes only values of
        their alphabets, so every component row looked up exists.
        """
        inner_outs = tuple([v for r, si in zip(self._readouts, s) for v in r[si]])
        # out_map reads only inner outputs (Wiring._check_expr enforces
        # it), so every outer input gives state s the same readout
        out = self._outer_out(inner_outs)
        if readout is not None:
            dict.__setitem__(readout, s, out)
        nxt = list(s)
        for i, f, table in self._fixed:
            nxt[i] = table[(s[i], f(inner_outs))]
        nexts = []
        for x in self.inputs:
            values = inner_outs + x
            for i, f, table in self._varying:
                nxt[i] = table[(s[i], f(values))]
            nexts.append(tuple(nxt))
        dict.update(update, zip([(s, x) for x in self.inputs], nexts))
        return out, nexts


def _read_only(table, *args, **kwargs):
    raise TypeError(f"{type(table).__name__} is a read-only mapping")


class _Table(dict):
    """A composite's update or readout table: a dict of the rows routed
    so far that reads as a read-only mapping over the whole product.

    It starts with the rows ``apply_algebra`` routed.  ``__getitem__`` is
    dict's own, so a routed row costs one dict lookup; a lookup that
    misses a key of the product (a composite state, and for an update
    row an outer input) routes that state (``_Router.fill``, which never
    fails: the components are total) and reads the row again, and any
    other miss raises KeyError, routing nothing.  The keys
    are the product's, in product order: iteration and ``len`` take them
    from the router's ``states`` and route nothing, while ``in``,
    ``get``, ``keys``, ``items``, ``values``, ``==``, ``!=`` and ``repr``
    are the ``Mapping`` mixins, which look rows up.  Iteration meets the
    product's size limit (see ``_Product``).  Every other dict method,
    writes, ``copy``, ``|`` and ``reversed`` included, raises TypeError;
    the router stores rows through dict's own methods.  Two threads
    routing the same state store the same values.
    """

    __slots__ = ("_router",)

    def __init__(self, router: _Router):
        self._router = router

    __contains__ = Mapping.__contains__
    get = Mapping.get
    keys = Mapping.keys
    items = Mapping.items
    values = Mapping.values
    __eq__ = Mapping.__eq__
    # dict's own != compares the routed rows alone
    __ne__ = object.__ne__
    __setitem__ = __delitem__ = setdefault = update = pop = popitem = \
        clear = copy = __or__ = __ror__ = __ior__ = __reversed__ = _read_only

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _UpdateTable(_Table):
    """Update rows, keyed (state, outer input).  A miss routes that
    state's update rows alone."""

    __slots__ = ()

    def __missing__(self, key):
        s = key[0] if isinstance(key, tuple) and len(key) == 2 else None
        # an input outside the input space routes nothing: routing would
        # not store its row, and dict's lookup would call __missing__ again
        if not self._router.is_state(s) or key[1] not in self._router.inputs:
            raise KeyError(key)
        self._router.fill(s, self)
        return dict.__getitem__(self, key)

    def __iter__(self):
        states, inputs = self._router.states, self._router.inputs
        return ((s, x) for s in states for x in inputs)

    def __len__(self) -> int:
        return len(self._router.states) * len(self._router.inputs)


class _ReadoutTable(_Table):
    """Readout rows, keyed by state.  It holds the update table, and not
    the other way round, so the two form no reference cycle; a miss
    routes that state's rows into both."""

    __slots__ = ("_update",)

    def __init__(self, router: _Router, update: _UpdateTable):
        super().__init__(router)
        self._update = update

    def __missing__(self, s):
        if not self._router.is_state(s):
            raise KeyError(s)
        self._router.fill(s, self._update, self)
        return dict.__getitem__(self, s)

    def __iter__(self):
        return iter(self._router.states)

    def __len__(self) -> int:
        return len(self._router.states)


# ---------------------------------------------------------------------------
# machine morphisms
# ---------------------------------------------------------------------------

class MachineHom(Record):
    """A state map between machines on the same box.

    Must send init to init, preserve readouts, and commute with update on
    every (state, input) square.  Construction checks this and raises
    MachineError with the first of ``hom_violations``.  What
    ``identity_hom``, ``compose_homs`` and ``lift_hom`` build is a
    morphism by construction and skips the check (``Record._built``).
    """

    source: MooreMachine
    target: MooreMachine
    state_map: Mapping[State, State]

    def __post_init__(self):
        object.__setattr__(self, "state_map", dict(self.state_map))
        bad = hom_violations(self)
        if bad:
            raise MachineError(bad[0])


def hom_violations(h: MachineHom) -> list[str]:
    """Every way ``h`` fails to be a machine morphism, empty when it is
    one; ``MachineHom`` raises the first when it is built."""
    out: list[str] = []
    if h.source.box != h.target.box:
        out.append(f"source and target inhabit different boxes: "
                   f"{_box_mismatch(h.source.box, h.target.box)}")
        return out
    tstates = set(h.target.states)
    for s in h.source.states:
        if s not in h.state_map:
            out.append(f"state map misses {render_state(s)}")
        elif h.state_map[s] not in tstates:
            out.append(
                f"state map sends {render_state(s)} outside the target states")
    if out:
        return out
    if h.state_map[h.source.init] != h.target.init:
        out.append("initial state is not preserved")
    for s in h.source.states:
        if h.source.readout[s] != h.target.readout[h.state_map[s]]:
            out.append(f"readout differs at {render_state(s)}")
    inputs = h.source.inputs()
    for s in h.source.states:
        for x in inputs:
            lhs = h.state_map[h.source.update[(s, x)]]
            rhs = h.target.update[(h.state_map[s], x)]
            if lhs != rhs:
                out.append(
                    f"update square fails at state {render_state(s)} on "
                    f"input {x}: map-then-step gives {render_state(rhs)}, "
                    f"step-then-map gives {render_state(lhs)}")
    return out


def identity_hom(m: MooreMachine) -> MachineHom:
    return MachineHom._built(m, m, {s: s for s in m.states})


def compose_homs(g: MachineHom, h: MachineHom) -> MachineHom:
    """The composite g after h; sources and targets must chain."""
    if h.target != g.source:
        raise MachineError("homs do not chain: h.target differs from g.source")
    return MachineHom._built(h.source, g.target, {
        s: g.state_map[h.state_map[s]] for s in h.source.states})


def lift_hom(homs: Sequence[MachineHom], source: MooreMachine,
             target: MooreMachine) -> MachineHom:
    """``homs`` lifted to a morphism from ``source`` to ``target``, the
    composites one wiring makes of their sources and of their targets;
    the caller builds both (``apply_algebra``).

    The state map acts componentwise, so the result is a morphism by
    construction and is not checked again.  It is a read-only mapping
    that maps a composite state on lookup and stores nothing
    (``_LiftedMap``), so lifting costs no more on a product over the
    limit; reading the map whole, as ``dict``, iteration, ``==`` or
    ``hom_violations`` do, is refused there with the whole-product
    readers' MachineError.
    """
    return MachineHom._built(source, target, _LiftedMap(
        tuple(h.state_map for h in homs), source.states))


class _LiftedMap(Mapping):
    """A lifted morphism's state map: a composite state ``(s_1, ..., s_n)``
    maps to ``(h_1(s_1), ..., h_n(s_n))``.

    Read-only and computed on lookup, like a composite's tables: a
    lookup costs one component lookup per slot, and a key that is not a
    state of the source product raises KeyError.  The keys are the
    source's states, in product order, so iteration, and with it
    ``dict``, ``items`` and ``==``, meets the product's size limit (see
    ``_Product``).  It holds the component maps and the source's state
    sequence, nothing it writes to, so threads may share it.
    """

    __slots__ = ("_maps", "_states")

    def __init__(self, maps: tuple[Mapping[State, State], ...],
                 states: Sequence[State]):
        self._maps = maps
        self._states = states

    def __getitem__(self, s):
        if s not in self._states:
            raise KeyError(s)
        return tuple(map(operator.getitem, self._maps, s))

    def __contains__(self, s) -> bool:
        return s in self._states

    def __iter__(self):
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return repr(dict(self.items()))
