"""Independent reference semantics for checking machines and composites.

Everything here recomputes behavior from raw tables, on purpose: the
simulator, ``route`` and ``eval_equal`` walk wiring expressions with one
evaluator of their own, which compiles nothing, instead of calling the
composition algebra or its compiled routing, so the two paths can check
each other; ``is_natural`` checks every naturality square that
``fincat.enumerate_nat`` builds its transformations to satisfy.  Do not
refactor the duplication away.

Word order conventions: inputs to a machine are flat tuples of port
symbols; words are sequences of those.  Input tuples are ordered by the
declared port alphabets, and "lexicographically least" always means that
order.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from .moore import MachineError, MooreMachine, State, render_state
from .wiring import (Const, InnerOut, OuterIn, Symbol, Table, Wiring,
                     WiringError, _box_mismatch)

if TYPE_CHECKING:  # for annotations: importing oracle loads no fincat
    from .fincat import NatTransformation, SetFunctor

Word = tuple[tuple[Symbol, ...], ...]


def _inputs(m: MooreMachine) -> list[tuple[Symbol, ...]]:
    alphabets = [p.alphabet for p in m.box.in_ports]
    return [tuple(t) for t in itertools.product(*alphabets)]


def _same_interface(a: MooreMachine, b: MooreMachine):
    if a.box != b.box:
        raise MachineError(
            f"machines inhabit different boxes: {_box_mismatch(a.box, b.box)}")


def _missing_row(m: MooreMachine, s: State, inputs,
                 where: str) -> Optional[MachineError]:
    """The error naming the first row of state ``s`` the tables lack.

    Readout first, then updates in the given input order; None when the
    state has every row.  Lookups run unguarded and call this only after
    a KeyError, so valid machines do no extra work.
    """
    if s not in m.readout:
        return MachineError(f"{where}: no readout for state {render_state(s)}")
    for x in inputs:
        if (s, x) not in m.update:
            return MachineError(
                f"{where}: no update for state {render_state(s)} on input {x}")
    return None


def trace_equivalent(a: MooreMachine, b: MooreMachine, depth: int) -> bool:
    """Do the machines produce equal outputs on every word of length <= depth?

    Explores reachable state pairs breadth first; a pair is visited once,
    which is sound because future behavior depends only on the pair.
    """
    return find_distinguishing_word(a, b, depth) is None


def find_distinguishing_word(a: MooreMachine, b: MooreMachine,
                             depth: int) -> Optional[Word]:
    """Shortest word (then lexicographically least) the machines disagree on.

    Returns None when all words of length <= depth agree.  Search is
    breadth first over state pairs in input order, keeping the first word
    that reaches each pair; a disagreement on readout at a pair reached by
    prefix w is witnessed by w extended with the least input symbol.
    """
    _same_interface(a, b)
    if depth <= 0:
        return None
    inputs = _inputs(a)
    least = inputs[0]
    start = (a.init, b.init)
    frontier: deque[tuple[State, State]] = deque([start])
    prefix: dict[tuple[State, State], Word] = {start: ()}
    try:
        for d in range(depth):
            level = list(frontier)
            frontier.clear()
            for pair in level:
                sa, sb = pair
                if a.readout[sa] != b.readout[sb]:
                    return prefix[pair] + (least,)
                if d == depth - 1:
                    continue
                for x in inputs:
                    nxt = (a.update[(sa, x)], b.update[(sb, x)])
                    if nxt not in prefix:
                        prefix[nxt] = prefix[pair] + (x,)
                        frontier.append(nxt)
    except KeyError:
        raise (_missing_row(a, sa, inputs, "first machine")
               or _missing_row(b, sb, inputs, "second machine")) from None
    return None


def bisimilar(a: MooreMachine, b: MooreMachine) -> bool:
    """Trace equivalence at every depth, by partition refinement (Moore).

    Only the states reachable from the initial states are refined, not a
    composite's whole product.  Split by readout, then by the blocks their
    successors land in; refinement only splits, so it stops once the
    initial states part or the block count stops growing.
    """
    _same_interface(a, b)
    inputs = _inputs(a)
    # both machines' reached states are numbered breadth first, pooled:
    # state k has readout reads[k] and successors succ[k] in input order
    reads, succ = [], []
    for m, who in ((a, "first machine"), (b, "second machine")):
        members = m.states
        if isinstance(members, tuple):  # a composite's product answers `in`
            members = frozenset(members)
        update, readout = m.update, m.readout
        s, base = m.init, len(reads)
        order, number = [s], {s: base}
        try:
            for s in order:  # order grows as the search reaches states
                if s not in members:
                    raise KeyError(s)
                reads.append(readout[s])
                nexts = [update[(s, x)] for x in inputs]
                for t in nexts:
                    if t not in number:
                        number[t] = base + len(order)
                        order.append(t)
                succ.append([number[t] for t in nexts])
        except KeyError:
            raise (_missing_row(m, s, inputs, who) or MachineError(
                f"{who}: state {render_state(s)} is not declared")) from None
    # the first blocks are the readouts; base numbers the second init
    block, n = reads, len(set(reads))
    while block[0] == block[base]:
        sigs: dict[tuple, int] = {}
        block = [sigs.setdefault((block[k], *map(block.__getitem__, ts)),
                                 len(sigs)) for k, ts in enumerate(succ)]
        if len(sigs) == n:
            return True
        n = len(sigs)
    return False


# ---------------------------------------------------------------------------
# stagewise simulation: private evaluator, no calls into the algebra
# ---------------------------------------------------------------------------

def _eval(expr, inner_vals, outer_vals):
    # inner_vals / outer_vals: dict (box, port) -> symbol
    if isinstance(expr, Const):
        return expr.symbol
    if isinstance(expr, InnerOut):
        return inner_vals[(expr.box, expr.port)]
    if isinstance(expr, OuterIn):
        return outer_vals[(expr.box, expr.port)]
    if isinstance(expr, Table):
        key = tuple(_eval(s, inner_vals, outer_vals) for s in expr.sources)
        return dict(expr.entries)[key]
    raise WiringError(f"not a source expression: {expr!r}")


def route(w: Wiring, inner_outs: Sequence[Symbol], outer_in: Sequence[Symbol]
          ) -> tuple[tuple[Symbol, ...], tuple[Symbol, ...]]:
    """One step of value routing, read off the source expressions.

    ``inner_outs`` holds the inner output values and ``outer_in`` the
    outer input values, each flat in document port order; returns the
    inner input values and the outer output values, flat the same way.
    """
    inner_vals = {(i, p.name): v
                  for (i, p), v in zip(w.inner_output_ports(), inner_outs)}
    outer_vals = {(j, p.name): v
                  for (j, p), v in zip(w.outer_input_ports(), outer_in)}
    return (tuple(_eval(w.in_map[(i, p.name)], inner_vals, outer_vals)
                  for i, p in w.inner_input_ports()),
            tuple(_eval(w.out_map[(j, p.name)], inner_vals, {})
                  for j, p in w.outer_output_ports()))


def eval_equal(a: Wiring, b: Wiring) -> bool:
    """Do two wirings on one boundary ``route`` every value alike?

    Exhaustive over the inner output and outer input values; raises
    WiringError when the boundaries differ.
    """
    if a.inner != b.inner or a.outer != b.outer:
        raise WiringError("wirings have different boundaries")
    points = itertools.product(
        itertools.product(*(p.alphabet for _, p in a.inner_output_ports())),
        itertools.product(*(p.alphabet for _, p in a.outer_input_ports())))
    return all(route(a, *point) == route(b, *point) for point in points)


def stagewise_simulate(w: Wiring, machines: Sequence[MooreMachine],
                       word: Sequence[Sequence[Symbol]]) -> list[tuple[Symbol, ...]]:
    """Run the wired network step by step without building the composite.

    At each step: read every component, route readouts and the outer
    input through the wiring expressions, then step every component on
    its routed input.  Outputs are read before the step, like run.
    """
    if len(w.outer) != 1:
        raise MachineError("stagewise simulation needs a single outer box")
    if len(machines) != len(w.inner):
        raise MachineError(
            f"wiring has {len(w.inner)} inner boxes but {len(machines)} "
            f"machines were given")
    for i, (b, m) in enumerate(zip(w.inner, machines)):
        if m.box != b:
            raise MachineError(f"machine {i} does not fit wiring slot {i}: "
                               f"{_box_mismatch(m.box, b)}")
    outer = w.outer[0]
    states = [m.init for m in machines]
    outs: list[tuple[Symbol, ...]] = []
    try:
        for x in word:
            x = tuple(x)
            if len(x) != len(outer.in_ports):
                raise MachineError(
                    f"input {x} has {len(x)} symbols for {len(outer.in_ports)} ports")
            for p, v in zip(outer.in_ports, x):
                if v not in p.alphabet:
                    raise MachineError(
                        f"input {x} puts {v!r} on port {p.name} outside its alphabet")
            inner_vals = {}
            for i, (m, s) in enumerate(zip(machines, states)):
                r = m.readout[s]
                for p, v in zip(m.box.out_ports, r):
                    inner_vals[(i, p.name)] = v
            outer_vals = {(0, p.name): v for p, v in zip(outer.in_ports, x)}
            out = tuple(_eval(w.out_map[(0, p.name)], inner_vals, {})
                        for p in outer.out_ports)
            outs.append(out)
            new_states = []
            for i, m in enumerate(machines):
                fed = tuple(_eval(w.in_map[(i, p.name)], inner_vals, outer_vals)
                            for p in m.box.in_ports)
                new_states.append(m.update[(states[i], fed)])
            states = new_states
    except KeyError:
        # a step reads every readout before any update
        for k, (mk, sk) in enumerate(zip(machines, states)):
            if sk not in mk.readout:
                raise _missing_row(mk, sk, (), f"component {k}") from None
        raise _missing_row(m, states[i], (fed,), f"component {i}") from None
    return outs


def is_natural(F: SetFunctor, G: SetFunctor, eta: NatTransformation) -> bool:
    """Does every naturality square of ``eta``: F => G commute?"""
    for m in F.cat.morphisms:
        for x in F.at(m.src):
            if eta.at(m.tgt)[F.map(m.mid)[x]] != G.map(m.mid)[eta.at(m.src)[x]]:
                return False
    return True
