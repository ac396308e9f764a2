"""The reference oracles, cross-checked against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_machine, random_network, random_stack,
                    random_word)
from wirebox.moore import MachineError, MooreMachine, apply_algebra, run
from wirebox.oracle import (bisimilar, find_distinguishing_word,
                            stagewise_simulate, trace_equivalent)
from wirebox.wiring import (Box, InnerOut, OuterIn, Port, Table, Wiring, compose,
                            identity_wiring, input_space)

CELL = Box("cell", (Port("a", BIT),), (Port("q", BIT),))


def delay(init: str = "0") -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, init, update, {s: (s,) for s in BIT})


def brute_distinguishing_word(a, b, depth):
    # exhaustive shortest-then-lex search, the slow way
    inputs = input_space([a.box])
    for n in range(1, depth + 1):
        for word in itertools.product(inputs, repeat=n):
            if run(a, word) != run(b, word):
                return word
    return None


# ---------------------------------------------------------------------------
# distinguishing words
# ---------------------------------------------------------------------------

def test_equal_machines_have_no_witness():
    assert find_distinguishing_word(delay(), delay(), 8) is None
    assert trace_equivalent(delay(), delay(), 8)


def test_different_inits_witnessed_at_first_readout():
    word = find_distinguishing_word(delay(), delay("1"), 8)
    assert word == (("0",),)


def test_witness_is_shortest_then_least():
    # machines agree until the second step on input 1
    sticky = MooreMachine(CELL, BIT, "0",
                          {(s, (a,)): "1" if s == "1" or a == "1" else "0"
                           for s in BIT for a in BIT},
                          {s: (s,) for s in BIT})
    word = find_distinguishing_word(delay(), sticky, 8)
    assert word == brute_distinguishing_word(delay(), sticky, 8)


def test_depth_zero_finds_nothing():
    assert find_distinguishing_word(delay(), delay("1"), 0) is None


def test_interface_mismatch_is_an_error():
    other = Box("other", (Port("a", BIT),), (Port("q", BIT),))
    m = MooreMachine(other, BIT, "0",
                     {(s, (a,)): a for s in BIT for a in BIT},
                     {s: (s,) for s in BIT})
    with pytest.raises(MachineError):
        find_distinguishing_word(delay(), m, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_bfs_matches_brute_force(seed):
    rng = random.Random(seed)
    box = CELL
    a = random_machine(rng, box)
    b = random_machine(rng, box)
    fast = find_distinguishing_word(a, b, 5)
    slow = brute_distinguishing_word(a, b, 5)
    assert fast == slow


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_none_means_all_words_agree(seed):
    rng = random.Random(seed)
    a = random_machine(rng, CELL)
    b = random_machine(rng, CELL)
    if find_distinguishing_word(a, b, 4) is not None:
        return
    for word in itertools.product(input_space([CELL]), repeat=4):
        assert run(a, word) == run(b, word)


# ---------------------------------------------------------------------------
# bisimilarity
# ---------------------------------------------------------------------------

def test_bisimilar_accepts_relabeling():
    m = delay()
    relabeled = MooreMachine(CELL, ("p", "q"), "p",
                             {("p", ("0",)): "p", ("p", ("1",)): "q",
                              ("q", ("0",)): "p", ("q", ("1",)): "q"},
                             {"p": ("0",), "q": ("1",)})
    assert bisimilar(m, relabeled)


def test_bisimilar_rejects_different_behavior():
    assert not bisimilar(delay(), delay("1"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_bisimilarity_equals_deep_trace_equivalence(seed):
    # deterministic machines: bisimilar iff trace equivalent at |A| * |B|
    rng = random.Random(seed)
    a = random_machine(rng, CELL)
    b = random_machine(rng, CELL)
    bound = len(a.states) * len(b.states) + 1
    assert bisimilar(a, b) == trace_equivalent(a, b, bound)


# ---------------------------------------------------------------------------
# stagewise simulation against the algebra
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_stagewise_agrees_with_composite(seed):
    # apply_algebra routes through the compiled wiring, stagewise_simulate
    # through its own evaluator; composed wirings bring multi-source tables
    rng = random.Random(seed)
    f, g, machines = random_stack(rng)
    for w in (f, compose(g, f)):
        word = random_word(rng, w.outer[0], rng.randint(0, 8))
        assert stagewise_simulate(w, machines, word) == \
            run(apply_algebra(w, machines), word)


def test_stagewise_checks_slot_boxes():
    rng = random.Random(5)
    w, machines = random_network(rng)
    with pytest.raises(MachineError):
        stagewise_simulate(w, machines[:-1] + (delay(),), ())


def test_stagewise_names_where_a_namesake_box_differs():
    # the same name, a wider input alphabet: refused where the boxes differ
    wide = Box("cell", (Port("a", BIT + ("2",)),), CELL.out_ports)
    machine = MooreMachine(wide, BIT, "0",
                           {(s, (a,)): s for s in BIT for a in BIT + ("2",)},
                           {s: (s,) for s in BIT})
    with pytest.raises(MachineError) as exc:
        stagewise_simulate(identity_wiring(CELL), (machine,), ())
    assert str(exc.value) == (
        "machine 0 does not fit wiring slot 0: input port 'a' on box 'cell': "
        "alphabet ['0', '1', '2'] vs ['0', '1']")


def test_stagewise_refuses_a_symbol_outside_the_outer_alphabet():
    # a table reads the symbol before any component does
    box = Box("b", (Port("x", BIT),), (Port("q", BIT),))
    table = Table((OuterIn(0, "x"),), ((("0",), "0"), (("1",), "1")))
    w = Wiring((CELL,), (box,), {(0, "a"): table}, {(0, "q"): InnerOut(0, "q")})
    for simulate in (stagewise_simulate,
                     lambda w, ms, word: run(apply_algebra(w, ms), word)):
        with pytest.raises(MachineError):
            simulate(w, (delay(),), (("1",), ("z",)))
    with pytest.raises(MachineError,
                       match=r"input \('z',\) puts 'z' on port x outside its alphabet"):
        stagewise_simulate(w, (delay(),), (("1",), ("z",)))


# ---------------------------------------------------------------------------
# missing table rows: machines the constructor refuses, built unchecked,
# since the reference semantics must not rely on every machine being total
# ---------------------------------------------------------------------------

def without_update_row() -> MooreMachine:
    d = delay()
    update = {k: v for k, v in d.update.items() if k != ("1", ("1",))}
    return MooreMachine._built(CELL, BIT, "0", update, d.readout)


def test_distinguishing_word_names_a_missing_update_row():
    with pytest.raises(MachineError,
                       match=r"second machine: no update for state 1 on input \('1',\)"):
        find_distinguishing_word(delay(), without_update_row(), 4)


def test_bisimilar_names_a_missing_update_row():
    with pytest.raises(MachineError,
                       match=r"first machine: no update for state 1 on input \('1',\)"):
        bisimilar(without_update_row(), delay())


def test_bisimilar_names_a_state_outside_the_machine():
    d = delay()
    update = dict(d.update)
    update[("1", ("1",))] = "2"
    escaping = MooreMachine._built(CELL, BIT, "0", update, d.readout)
    with pytest.raises(MachineError, match="first machine: no readout for state 2"):
        bisimilar(escaping, delay())
    d = delay()
    outside = MooreMachine._built(CELL, BIT, "9", d.update, d.readout)
    with pytest.raises(MachineError, match="second machine: no readout for state 9"):
        bisimilar(delay(), outside)


def test_stagewise_names_a_missing_update_row():
    wiring = identity_wiring(CELL)
    with pytest.raises(MachineError,
                       match=r"component 0: no update for state 1 on input \('1',\)"):
        stagewise_simulate(wiring, (without_update_row(),), (("1",), ("1",)))
