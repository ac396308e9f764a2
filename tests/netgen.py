"""Deterministic random networks for law checking.

Everything is binary and small on purpose: product state spaces stay
enumerable, so trace comparison to depth 6 is cheap even across
hundreds of generated networks.  All draws come from a caller-supplied
``random.Random``, so a fixed seed fixes the whole stream.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from wirebox.moore import MooreMachine
from wirebox.wiring import (Box, Const, InnerOut, OuterIn, Port, Table,
                            Wiring, input_space)

BIT = ("0", "1")


def random_box(rng: random.Random, name: str) -> Box:
    ins = tuple(Port(f"i{k}", BIT) for k in range(rng.randint(1, 2)))
    outs = tuple(Port(f"o{k}", BIT) for k in range(rng.randint(1, 2)))
    return Box(name, ins, outs)


def random_machine(rng: random.Random, box: Box) -> MooreMachine:
    n = rng.randint(1, 3)
    states = tuple(f"s{k}" for k in range(n))
    inputs = input_space([box])
    update = {(s, x): rng.choice(states) for s in states for x in inputs}
    readout = {s: tuple(rng.choice(BIT) for _ in box.out_ports)
               for s in states}
    return MooreMachine(box, states, states[0], update, readout)


def _random_expr(rng: random.Random, refs: Sequence, allow_table: bool):
    # refs are the admissible atomic sources for this position
    roll = rng.random()
    if roll < 0.15 or not refs:
        return Const(rng.choice(BIT))
    if roll < 0.75 or not allow_table:
        return rng.choice(list(refs))
    picked = rng.sample(list(refs), k=min(len(refs), rng.randint(1, 2)))
    entries = tuple((key, rng.choice(BIT))
                    for key in itertools.product(BIT, repeat=len(picked)))
    return Table(tuple(picked), entries)


def random_wiring(rng: random.Random, inner: Sequence[Box],
                  outer: Box) -> Wiring:
    return rebuilt(random_raw_wiring(rng, inner, outer))


def rebuilt(w: Wiring) -> Wiring:
    """``w``'s maps through the validating constructor, which normalizes."""
    return Wiring(w.inner, w.outer, w.in_map, w.out_map)


def random_raw_wiring(rng: random.Random, inner: Sequence[Box],
                      outer: Box) -> Wiring:
    """``random_wiring``'s maps as drawn, taken unchecked and not
    normalized (``Wiring._built``): the raw input its constructor gets."""
    inner = tuple(inner)
    feedback = [InnerOut(i, p.name)
                for i, b in enumerate(inner) for p in b.out_ports]
    driving = [OuterIn(0, p.name) for p in outer.in_ports]
    in_map = {}
    for i, b in enumerate(inner):
        for p in b.in_ports:
            in_map[(i, p.name)] = _random_expr(rng, feedback + driving, True)
    out_map = {}
    for p in outer.out_ports:
        out_map[(0, p.name)] = _random_expr(rng, feedback, True)
    return Wiring._built(inner, (outer,), in_map, out_map)


def random_network(rng: random.Random, tag: str = "n"):
    """One wiring with machines: (wiring, machines)."""
    raw, machines = random_raw_network(rng, tag)
    return rebuilt(raw), machines


def random_raw_network(rng: random.Random, tag: str = "n"):
    """``random_network``'s draws, with the wiring's maps as drawn
    (``random_raw_wiring``): (raw wiring, machines)."""
    inner = tuple(random_box(rng, f"{tag}{k}")
                  for k in range(rng.randint(1, 3)))
    outer = random_box(rng, f"{tag}x")
    raw = random_raw_wiring(rng, inner, outer)
    machines = tuple(random_machine(rng, b) for b in inner)
    return raw, machines


def random_stack(rng: random.Random, tag: str = "m"):
    """A composable pair: f into a middle box, g from it to a new outer."""
    f, machines = random_network(rng, tag)
    mid = f.outer[0]
    outer = random_box(rng, f"{tag}z")
    g = random_wiring(rng, (mid,), outer)
    return f, g, machines


def random_word(rng: random.Random, box: Box, length: int):
    return tuple(tuple(rng.choice(p.alphabet) for p in box.in_ports)
                 for _ in range(length))


def relabel(rng: random.Random, m: MooreMachine) -> MooreMachine:
    """An isomorphic copy with fresh state names in shuffled order."""
    return relabelling(rng, m)[0]


def relabelling(rng: random.Random, m: MooreMachine):
    """``relabel``'s copy of ``m``, with the map from ``m``'s states to
    the copy's: (copy, map)."""
    order = list(m.states)
    rng.shuffle(order)
    name = {s: f"r{k}" for k, s in enumerate(order)}
    return MooreMachine(
        m.box, tuple(name[s] for s in order), name[m.init],
        {(name[s], x): name[t] for (s, x), t in m.update.items()},
        {name[s]: r for s, r in m.readout.items()}), name
