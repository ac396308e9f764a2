"""Seeded inputs for the benchmark: wired networks, machines, rewires, words.

The generator is the benchmark's own, so the benchmark does not depend
on test helpers that may move.  Every draw comes from a caller-supplied
``random.Random``; a fixed seed fixes the whole stream.

Ports carry binary or ternary alphabets.  A source whose alphabet does
not fit its target port is routed through a ``Table``, so generated
wirings always validate.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from wirebox.moore import MooreMachine
from wirebox.wiring import (Box, Const, InnerOut, OuterIn, Port, Table,
                            Wiring, input_space)

BIN = ("0", "1")
TER = ("0", "1", "2")
TERNARY_SHARE = 0.3


@dataclass(frozen=True, eq=False)
class Network:
    """A wiring into one outer box with a machine per inner slot."""

    wiring: Wiring
    machines: tuple[MooreMachine, ...]

    @property
    def product_states(self) -> int:
        return math.prod(len(m.states) for m in self.machines)


def _deal(rng: random.Random, n: int, share: float) -> list[bool]:
    """``n`` flags, ``round(n * share)`` of them set, in shuffled order.

    Dealing fixed shares instead of drawing each flag keeps networks of
    one size doing comparable work, so op times vary less with the seed.
    """
    hits = round(n * share)
    flags = [True] * hits + [False] * (n - hits)
    rng.shuffle(flags)
    return flags


def _alphabets(rng: random.Random, n: int) -> list[tuple[str, ...]]:
    return [TER if t else BIN for t in _deal(rng, n, TERNARY_SHARE)]


def random_machine(rng: random.Random, box: Box, n_states: int,
                   tag: str = "s") -> MooreMachine:
    """A total machine whose states are all reachable from the first."""
    states = tuple(f"{tag}{k}" for k in range(n_states))
    inputs = input_space([box])
    update = {(s, x): rng.choice(states) for s in states for x in inputs}
    # a spine through every state keeps the product's reachable part large
    for k in range(n_states - 1):
        update[(states[k], rng.choice(inputs))] = states[k + 1]
    readout = {s: tuple(rng.choice(p.alphabet) for p in box.out_ports)
               for s in states}
    return MooreMachine(box, states, states[0], update, readout)


def _table(rng: random.Random, picked, target: tuple[str, ...]) -> Table:
    keys = itertools.product(*(alph for _, alph in picked))
    return Table(tuple(ref for ref, _ in picked),
                 tuple((key, rng.choice(target)) for key in keys))


def _source(rng: random.Random, kind: str, refs, target: tuple[str, ...]):
    """A source expression of the given kind for a port with ``target``."""
    if kind == "const" or not refs:
        return Const(rng.choice(target))
    if kind == "table2" and len(refs) >= 2:
        return _table(rng, rng.sample(refs, 2), target)
    fitting = [ref for ref, alph in refs if set(alph) <= set(target)]
    if kind == "ref" and fitting:
        return rng.choice(fitting)
    return _table(rng, [rng.choice(refs)], target)


def _sources(rng: random.Random, refs, targets) -> list:
    """One source per target port, with source kinds dealt in fixed shares."""
    n = len(targets)
    kinds = ["const"] * round(n * 0.05) + ["table2"] * round(n * 0.2)
    kinds += ["table1"] * round(n * 0.2)
    kinds += ["ref"] * (n - len(kinds))
    rng.shuffle(kinds)
    return [_source(rng, k, refs, t) for k, t in zip(kinds, targets)]


def random_network(rng: random.Random, boxes: int, exponent: int,
                   tag: str) -> Network:
    """Inner boxes with feedback and exactly ``2**exponent`` product states.

    Half the boxes (rounded down) have two input ports and half have two
    output ports, the rest one.  Component state counts are 1, 2 or 4.
    """
    two_in = _deal(rng, boxes, 0.5)
    two_out = _deal(rng, boxes, 0.5)
    ins = _alphabets(rng, boxes + sum(two_in))
    outs = _alphabets(rng, boxes + sum(two_out))
    inner = []
    for k in range(boxes):
        n_in, n_out = 1 + two_in[k], 1 + two_out[k]
        inner.append(Box(f"{tag}{k}",
                         tuple(Port(f"i{j}", ins.pop()) for j in range(n_in)),
                         tuple(Port(f"o{j}", outs.pop())
                               for j in range(n_out))))
    outer = Box(f"{tag}x", (Port("i0", BIN),),
                (Port("o0", BIN), Port("o1", TER)))
    feedback = [(InnerOut(i, p.name), p.alphabet)
                for i, b in enumerate(inner) for p in b.out_ports]
    driving = [(OuterIn(0, p.name), p.alphabet) for p in outer.in_ports]
    in_keys = [(i, p) for i, b in enumerate(inner) for p in b.in_ports]
    in_map = dict(zip(((i, p.name) for i, p in in_keys),
                      _sources(rng, feedback + driving,
                               [p.alphabet for _, p in in_keys])))
    out_map = dict(zip(((0, p.name) for p in outer.out_ports),
                       _sources(rng, feedback,
                                [p.alphabet for p in outer.out_ports])))
    wiring = Wiring(tuple(inner), (outer,), in_map, out_map)
    bits = [0] * boxes
    for _ in range(exponent):
        bits[rng.choice([i for i, b in enumerate(bits) if b < 2])] += 1
    machines = tuple(random_machine(rng, b, 2 ** n)
                     for b, n in zip(inner, bits))
    return Network(wiring, machines)


def rewrite_one(rng: random.Random, net: Network) -> Network:
    """The same wiring with one component replaced by a fresh machine."""
    slot = rng.randrange(len(net.machines))
    old = net.machines[slot]
    machines = list(net.machines)
    machines[slot] = random_machine(rng, old.box, len(old.states), tag="r")
    return Network(net.wiring, tuple(machines))


def random_endo(rng: random.Random, box: Box) -> Wiring:
    """An endomorphism wiring of one box that reroutes its connections."""
    outer_refs = [(OuterIn(0, p.name), p.alphabet) for p in box.in_ports]
    kinds = ("ref", "table1", "table2")
    in_map = {(0, p.name): _source(rng, rng.choice(kinds), outer_refs,
                                   p.alphabet)
              for p in box.in_ports}
    out_map = {(0, p.name): InnerOut(0, p.name) for p in box.out_ports}
    return Wiring((box,), (box,), in_map, out_map)


def random_word(rng: random.Random, box: Box, length: int):
    inputs = input_space([box])
    return tuple(rng.choice(inputs) for _ in range(length))


def relabel(rng: random.Random, m: MooreMachine, tag: str = "q") -> MooreMachine:
    """An isomorphic copy with fresh state names in shuffled order."""
    order = list(m.states)
    rng.shuffle(order)
    name = {s: f"{tag}{k}" for k, s in enumerate(order)}
    return MooreMachine(
        m.box, tuple(name[s] for s in order), name[m.init],
        {(name[s], x): name[t] for (s, x), t in m.update.items()},
        {name[s]: r for s, r in m.readout.items()})
