"""The reference oracles, cross-checked against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_machine, random_network, random_stack,
                    random_wiring, random_word)
from wirebox.moore import MachineError, MooreMachine, apply_algebra, run
from wirebox.oracle import (bisimilar, find_distinguishing_word,
                            stagewise_simulate, trace_equivalent)
from wirebox.wiring import (Box, InnerOut, OuterIn, Port, Table, Wiring, compose,
                            identity_wiring, input_space, precompose_slot)

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


@pytest.mark.parametrize("compare", [
    lambda a, b: find_distinguishing_word(a, b, 4), bisimilar],
    ids=["find_distinguishing_word", "bisimilar"])
def test_a_namesake_box_is_refused_where_it_differs(compare):
    # two boxes named cell: the second's input is ternary
    wide = Box("cell", (Port("a", BIT + ("2",)),), CELL.out_ports)
    ternary = MooreMachine(wide, BIT, "0",
                           {(s, (a,)): s for s in BIT for a in BIT + ("2",)},
                           {s: (s,) for s in BIT})
    with pytest.raises(MachineError) as exc:
        compare(delay(), ternary)
    assert str(exc.value) == (
        "machines inhabit different boxes: input port 'a' on box 'cell': "
        "alphabet ['0', '1'] vs ['0', '1', '2']")


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


def reachable(m: MooreMachine) -> set:
    """The states of ``m`` some word reaches from its initial state."""
    seen, todo = {m.init}, [m.init]
    while todo:
        s = todo.pop()
        for x in input_space([m.box]):
            t = m.update[(s, x)]
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def with_unreachable_states(rng: random.Random, m: MooreMachine) -> MooreMachine:
    """``m`` with two states no state reaches, their rows drawn at random
    over all its states, and some of them left out (built unchecked)."""
    states = tuple(m.states) + ("u0", "u1")
    update, readout = dict(m.update), dict(m.readout)
    rows = []
    for s in ("u0", "u1"):
        readout[s] = tuple(rng.choice(BIT) for _ in m.box.out_ports)
        rows.append((readout, s))
        for x in input_space([m.box]):
            update[(s, x)] = rng.choice(states)
            rows.append((update, (s, x)))
    for table, key in rng.sample(rows, rng.randint(0, 2)):
        del table[key]
    return MooreMachine._built(m.box, states, m.init, update, readout)


def with_duplicated_states(rng: random.Random, m: MooreMachine) -> MooreMachine:
    """A bisimilar copy of ``m`` with every state twice, each copy of a
    state stepping to a random copy of its successor."""
    states = tuple((s, k) for s in m.states for k in (0, 1))
    return MooreMachine(
        m.box, states, (m.init, 0),
        {((s, k), x): (m.update[(s, x)], rng.randint(0, 1))
         for s, k in states for x in input_space([m.box])},
        {(s, k): m.readout[s] for s, k in states})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_bisimilarity_equals_trace_equivalence_to_moores_bound(seed):
    # the reachable parts decide; a word of len(Ra) + len(Rb) steps
    # separates any two of their states that some word does
    rng = random.Random(seed)
    w, machines = random_network(rng)
    box = w.inner[0]
    rewired = precompose_slot(w, 0, random_wiring(rng, (box,), box))
    a = random_machine(rng, CELL)
    b = random_machine(rng, CELL)
    pairs = [(apply_algebra(w, machines), apply_algebra(rewired, machines)),
             (with_unreachable_states(rng, a), with_unreachable_states(rng, b)),
             (with_unreachable_states(rng, a), b),
             (a, with_duplicated_states(rng, a)),
             (with_duplicated_states(rng, a), b)]
    for x, y in pairs:
        depth = len(reachable(x)) + len(reachable(y))
        assert bisimilar(x, y) == \
            (find_distinguishing_word(x, y, depth) is None)
    assert bisimilar(a, pairs[3][1])


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
    # every row of state 2 is there, but 2 is not one of the states
    update.update({("2", (x,)): x for x in BIT})
    rows = MooreMachine._built(CELL, BIT, "0", update, {**d.readout, "2": ("1",)})
    with pytest.raises(MachineError, match="^first machine: state 2 is not declared$"):
        bisimilar(rows, delay())
    d = delay()
    outside = MooreMachine._built(CELL, BIT, "9", d.update, d.readout)
    with pytest.raises(MachineError, match="second machine: no readout for state 9"):
        bisimilar(delay(), outside)


def test_stagewise_names_a_missing_update_row():
    wiring = identity_wiring(CELL)
    with pytest.raises(MachineError,
                       match=r"component 0: no update for state 1 on input \('1',\)"):
        stagewise_simulate(wiring, (without_update_row(),), (("1",), ("1",)))
