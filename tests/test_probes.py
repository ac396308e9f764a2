"""Behavioral tests, outcomes, knowledge bases, and the learner."""

import hashlib
import itertools
import pathlib
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_machine, random_network, random_wiring,
                    relabel)
from wirebox import moore, probes
from wirebox.attacks import CompositeSystem, apply_script, attack_diff
from wirebox.fileformat import load, load_kb_dir
from wirebox.moore import MachineError, MooreMachine, apply_algebra, run
from wirebox.oracle import bisimilar, find_distinguishing_word
from wirebox.probes import (AMBIGUOUS, EXACT, UNKNOWN, KnowledgeBase,
                            MachineOracle, OracleError, Outcome, OutputImage,
                            ProbeError, StateSet, Terminal, Test, TraceSet,
                            compare_outcomes, outcome_witness, run_test,
                            separating_word, yoneda_filter)
from wirebox.wiring import (Box, OuterIn, InnerOut, Port, Wiring,
                            identity_wiring, input_space)
from test_moore import history_row, tree_of_32

UAV = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "uav"
CELL = Box("cell", (Port("a", BIT),), (Port("q", BIT),))


def delay(init: str = "0") -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, init, update, {s: (s,) for s in BIT})


def inverter() -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, "0", update,
                        {"0": ("1",), "1": ("0",)})


def history() -> MooreMachine:
    states = tuple(a + b for a in BIT for b in BIT)
    update = {(s, (a,)): s[1] + a for s in states for a in BIT}
    return MooreMachine(CELL, states, "00", update,
                        {s: (s[1],) for s in states})


BATTERY = (Test("traces-4", TraceSet(4)),
           Test("state-count", StateSet()),
           Test("point", Terminal()),
           Test("image-2", OutputImage(2)))


def reference_traces(m: MooreMachine, depth: int) -> tuple:
    """The trace set the slow way: every word of the length, run from init.

    d·|I|^d steps; the reference that trace quotients are checked against.
    """
    inputs = input_space([m.box])
    return tuple(sorted((word, tuple(run(m, word)))
                        for word in itertools.product(inputs, repeat=depth)))


# ---------------------------------------------------------------------------
# tests and outcomes
# ---------------------------------------------------------------------------

def test_trace_outcome_covers_every_word():
    pairs = reference_traces(delay(), 2)
    assert len(pairs) == 4  # two binary steps
    words = [w for w, _ in pairs]
    assert words == sorted(words)


def test_trace_outcome_is_the_layered_quotient():
    # delay at depth 3: init reads 0, input a leads to the class reading a
    out = run_test(Test("t", TraceSet(3)), delay())
    assert out.value == (((("0",), 0, 1),),
                         ((("0",), 0, 1), (("1",), 0, 1)),
                         ((("0",),), (("1",),)))
    assert out.inputs == (("0",), ("1",))
    # history behaves like delay; its four states fold into the same classes
    assert run_test(Test("t", TraceSet(3)), history()) == out
    assert run_test(Test("t", TraceSet(0)), delay()).value == ()


def test_trace_quotient_has_one_layer_per_step():
    view = load(UAV / "scenario.yaml").scenario.system("attacker-view")
    composite = view.composite()
    assert len(composite.states) == 32
    value = run_test(Test("t", TraceSet(40)), composite).value
    assert len(value) == 40
    assert all(1 <= len(layer) <= 32 for layer in value)


def test_trace_outcomes_over_different_inputs_disagree():
    # the same quotient shape over other input symbols is another trace set
    xy = Box("cell", (Port("a", ("x", "y")),), CELL.out_ports)
    renamed = MooreMachine(xy, BIT, "0",
                           {(s, (a,)): "0" if a == "x" else "1"
                            for s in BIT for a in ("x", "y")},
                           {s: (s,) for s in BIT})
    t = Test("t", TraceSet(3))
    a, b = run_test(t, delay()), run_test(t, renamed)
    assert a.value == b.value
    assert not compare_outcomes(t, a, b)
    with pytest.raises(ProbeError, match="different inputs"):
        outcome_witness(t, a, b)


def fixture_machines() -> list[tuple[str, MooreMachine]]:
    """Every machine on the airframe box the fixtures define or produce."""
    scenario = load(UAV / "scenario.yaml").scenario
    machines = [(n, s.composite()) for n, s in scenario.systems.items()]
    machines += [(f"{s.name}-attacked",
                  apply_script(scenario.system(s.system), s.script).system.composite())
                 for s in scenario.scripts]
    machines += list(load_kb_dir(UAV / "kb").entries)
    machines.append(("target", load(UAV / "target.yaml").machine))
    return machines


def test_trace_quotients_agree_with_the_reference_on_fixtures():
    machines = fixture_machines()
    disagreeing = 0
    for depth in (1, 2, 4, 6):
        t = Test("t", TraceSet(depth))
        outcomes = [run_test(t, m) for _, m in machines]
        traces = [reference_traces(m, depth) for _, m in machines]
        for i, j in itertools.combinations(range(len(machines)), 2):
            agree = traces[i] == traces[j]
            assert compare_outcomes(t, outcomes[i], outcomes[j]) == agree, \
                (machines[i][0], machines[j][0], depth)
            if not agree:
                disagreeing += 1
                assert outcome_witness(t, outcomes[i], outcomes[j]) == \
                    find_distinguishing_word(machines[i][1], machines[j][1], depth)
    assert disagreeing  # the fixtures exercise both verdicts


# alphabets declared against sorted order
REV = Box("rev", (Port("a", ("1", "0")), Port("b", ("y", "x"))),
          (Port("q", BIT),))


# sha256 of repr(value) of each machine's TraceSet(6) outcome, pinned when
# the quotient renumbered its classes in a pass of its own; the value holds
# strings, ints and tuples alone, so its repr is the same under any
# PYTHONHASHSEED
TRACE_6_DIGESTS = {
    "target": "a41c53e75bfd2d08d802688b0a82653c87efb75ff74ba5c9968321259be6f579",
    "attacker-view": "a41c53e75bfd2d08d802688b0a82653c87efb75ff74ba5c9968321259be6f579",
    "gps-firmware-attacked": "0bb5bcfe0d84a8240010201f1857da18a67a78f201b703ee05beda7fbba84c1f",
    "gps-swap-attacked": "e45c261d7feef05e144adfb532a32de5fcfc773dd1e5983fdcf1247d117663de",
    "combo-attacked": "db29c76d7e1ccfaf3d5f6094e7238a17f7adc4e0df38e9f6c7017efd1cb5c411",
    "double-swap-attacked": "a41c53e75bfd2d08d802688b0a82653c87efb75ff74ba5c9968321259be6f579",
    "gps-minimize-attacked": "a41c53e75bfd2d08d802688b0a82653c87efb75ff74ba5c9968321259be6f579",
}


def test_trace_quotients_keep_their_canonical_numbering():
    machines = dict(fixture_machines())
    t = Test("t", TraceSet(6))
    digests = {name: hashlib.sha256(repr(run_test(t, machines[name]).value)
                                    .encode()).hexdigest()
               for name in TRACE_6_DIGESTS}
    assert digests == TRACE_6_DIGESTS


def test_a_deep_trace_quotient_holds_little_beyond_its_value():
    # the airframe target at depth 1000 (CPython 3.11): the value kept is
    # about 1.6 MB, and building it peaks at about 2.4 MB; a build that also
    # keeps every layer's signatures and renumbering dicts peaks at 5.3 MB
    target = load(UAV / "target.yaml").machine
    tracemalloc.start()
    try:
        value = run_test(Test("t", TraceSet(1000)), target).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(value) == 1000
    assert peak < 3_500_000


def test_trace_witness_is_the_least_word_whatever_the_port_order():
    # words are ordered by the declared alphabets, not by sorted symbols
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        a, b = random_machine(rng, REV), random_machine(rng, REV)
        for depth in (1, 2, 3):
            t = Test("t", TraceSet(depth))
            ra, rb = reference_traces(a, depth), reference_traces(b, depth)
            if ra != rb:
                checked += 1
                assert outcome_witness(t, run_test(t, a), run_test(t, b)) == \
                    find_distinguishing_word(a, b, depth)
    assert checked


def network_pair(rng: random.Random, variant: int):
    """A netgen composite and, by variant, a relabelled copy of it, a copy
    with one row redirected, the same machines under another wiring, or
    a fresh machine on its box."""
    wiring, machines = random_network(rng)
    a = apply_algebra(wiring, machines)
    if variant == 0:
        b = relabel(rng, a)
    elif variant == 1:
        update = dict(a.update)
        update[rng.choice(sorted(update))] = rng.choice(a.states)
        b = relabel(rng, MooreMachine(a.box, a.states, a.init, update, a.readout))
    elif variant == 2:
        b = apply_algebra(random_wiring(rng, wiring.inner, a.box), machines)
    else:
        b = random_machine(rng, a.box)
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(0, 3))
def test_trace_quotients_agree_with_the_reference(seed, depth, variant):
    rng = random.Random(seed)
    a, b = network_pair(rng, variant)
    t = Test("t", TraceSet(depth))
    oa, ob = run_test(t, a), run_test(t, b)
    assert run_test(t, relabel(rng, a)) == oa
    ra, rb = reference_traces(a, depth), reference_traces(b, depth)
    quotient = compare_outcomes(t, oa, ob)
    assert quotient == (ra == rb) == \
        (find_distinguishing_word(a, b, depth) is None)
    if not quotient:
        assert outcome_witness(t, oa, ob) == find_distinguishing_word(a, b, depth)


def pair_levels(a: MooreMachine, b: MooreMachine) -> int:
    """How many lengths of word it takes to reach every pair of states
    that words lead the two machines to together."""
    inputs = input_space([a.box])
    level, seen, n = {(a.init, b.init)}, set(), 0
    while level:
        seen |= level
        n += 1
        level = {(a.update[(s, x)], b.update[(t, x)])
                 for s, t in level for x in inputs} - seen
    return n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_one_search_gives_the_reference_word(seed, variant):
    # at every depth, the pair search on two machines and on their trace
    # quotients finds the reference's word, and it closes exactly when
    # the machines are bisimilar and the depth reaches the last level of
    # pairs they reach; with no depth bound it finds no word exactly when
    # they are bisimilar; history rows of two lengths differ only deep,
    # and two drawn trees reach about 70 of their 2**32 states
    rng = random.Random(seed)
    pairs = (network_pair(rng, variant),
             (random_machine(rng, REV), random_machine(rng, REV)),
             tuple(apply_algebra(*history_row(rng.randint(1, 5)))
                   for _ in range(2)),
             tuple(apply_algebra(*tree_of_32(rng)) for _ in range(2)))
    for a, b in pairs:
        for depth in range(9):
            t = Test("t", TraceSet(depth))
            word = find_distinguishing_word(a, b, depth)
            found, closed = separating_word(a, b, depth)
            assert found == word
            assert closed == (bisimilar(a, b) and pair_levels(a, b) <= depth)
            assert outcome_witness(t, run_test(t, a), run_test(t, b)) == word
        assert (separating_word(a, b, 10 ** 9)[0] is None) == bisimilar(a, b)


#: trace depths and image steps from 0 to 9, on both sides of each search
#: depth from 0 to 8 and of each word length the search finds
SPREAD = (tuple(Test(f"traces-{d}", TraceSet(d)) for d in range(10))
          + tuple(Test(f"image-{k}", OutputImage(k)) for k in range(10))
          + (Test("states", StateSet()), Test("point", Terminal())))


def assert_diff_verdicts_are_the_reference(baseline, attacked, depth, battery):
    before, after = baseline.composite(), attacked.composite()
    want = [(t.name, compare_outcomes(t, run_test(t, before),
                                      run_test(t, after))) for t in battery]
    assert list(attack_diff(baseline, attacked, depth, battery).tests) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_a_diff_gives_every_test_the_verdict_of_its_outcomes(seed, variant):
    # the verdicts the pair search decides are those run_test's outcomes
    # give, for equal and unequal machines alike
    rng = random.Random(seed)
    a, b = network_pair(rng, variant)
    pairs = ((a, b), (random_machine(rng, REV), random_machine(rng, REV)),
             (a, a))
    for a, b in pairs:
        systems = [CompositeSystem(identity_wiring(m.box), (m,)) for m in (a, b)]
        for depth in range(9):
            assert_diff_verdicts_are_the_reference(*systems, depth, SPREAD)


def test_a_diff_of_each_fixture_script_gives_the_reference_verdicts():
    scenario = load(UAV / "scenario.yaml").scenario
    decided = set()
    for entry in scenario.scripts:
        baseline = scenario.system(entry.system)
        attacked = apply_script(baseline, entry.script).system
        for depth in range(1, 8):
            assert_diff_verdicts_are_the_reference(baseline, attacked, depth,
                                                   scenario.battery)
            word, closed = separating_word(baseline.composite(),
                                           attacked.composite(), depth)
            decided.update(probes.search_verdict(t, word, depth, closed)
                           is not None
                           for t in scenario.battery
                           if isinstance(t.kind, (TraceSet, OutputImage)))
    # the search decides some trace and image tests and leaves others open
    assert decided == {False, True}


def test_a_diff_the_search_decides_builds_no_trace_or_image_outcome(
        monkeypatch):
    calls = []
    for name in ("_trace_quotient", "_nth"):
        f = getattr(probes, name)
        monkeypatch.setattr(probes, name, lambda *args, f=f, name=name:
                            calls.append(name) or f(*args))
    scenario = load(UAV / "scenario.yaml").scenario
    systems = [(scenario.system(e.system),
                apply_script(scenario.system(e.system), e.script).system)
               for e in scenario.scripts]
    for baseline, attacked in systems:
        word, closed = separating_word(baseline.composite(),
                                       attacked.composite(), 6)
        assert all(probes.search_verdict(t, word, 6, closed) is not None
                   for t in scenario.battery
                   if isinstance(t.kind, (TraceSet, OutputImage)))
        attack_diff(baseline, attacked, 6, scenario.battery)
    assert calls == []
    # at depth 2 the search decides neither traces-6 nor image-2
    attack_diff(*systems[0], 2, scenario.battery)
    assert {"_trace_quotient", "_nth"} <= set(calls)


def test_state_set_value_is_the_history_machines_states_in_order():
    out = run_test(Test("s", StateSet()), history())
    assert out.value == ("00", "01", "10", "11")


def some_machine(rng: random.Random, composite: bool) -> MooreMachine:
    if composite:
        return apply_algebra(*random_network(rng))
    return random_machine(rng, Box("b", (Port("a", BIT), Port("b", BIT)),
                                   (Port("q", BIT),)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_state_set_value_is_the_machines_own_states(seed, composite,
                                                    other_composite):
    rng = random.Random(seed)
    m = some_machine(rng, composite)
    other = some_machine(rng, other_composite)
    t = Test("s", StateSet())
    a, b = run_test(t, m), run_test(t, other)
    assert a.value is m.states and a.inputs == ()
    counts = (len(m.states), len(other.states))
    agree = counts[0] == counts[1]
    assert compare_outcomes(t, a, b) == agree
    assert outcome_witness(t, a, b) == (None if agree else counts)


def test_a_cardinality_state_set_renders_no_state(monkeypatch):
    def render(s):
        raise AssertionError(f"rendered {s!r}")

    # probes renders no state at all; moore's renderer is the one left
    monkeypatch.setattr(moore, "render_state", render)
    t = Test("s", StateSet())
    big = apply_algebra(chain(), (history(), history()))
    small = apply_algebra(chain(), (delay(), delay()))
    a, b = run_test(t, big), run_test(t, small)
    assert len(a.value) == 16 and not compare_outcomes(t, a, b)
    assert outcome_witness(t, a, b) == (16, 4)
    kb = KnowledgeBase(big.box, (("big", big), ("small", small)))
    result = yoneda_filter(kb, (t,), MachineOracle(fresh_copy(big)))
    assert result.candidates == ("big",)


def test_terminal_outcome_is_constant():
    assert run_test(Test("p", Terminal()), delay()).value == \
        run_test(Test("p", Terminal()), history()).value == ("*",)


def test_output_image_walks_exact_depth():
    # from init "00", two steps reach any pair; image is both readouts
    out = run_test(Test("i", OutputImage(2)), history())
    assert out.value == (("0",), ("1",))
    at_zero = run_test(Test("i", OutputImage(0)), history())
    assert at_zero.value == (("0",),)


def test_a_state_set_test_counts_states_only():
    t = Test("s", StateSet())
    a = run_test(t, delay())
    b = run_test(t, inverter())
    assert compare_outcomes(t, a, b)  # both have two states


def test_equality_comparator_sees_different_traces():
    t = Test("t", TraceSet(3))
    a, b = run_test(t, delay()), run_test(t, inverter())
    assert not compare_outcomes(t, a, b)
    assert outcome_witness(t, a, b) is not None


def test_witness_is_none_on_agreement():
    t = Test("t", TraceSet(3))
    assert outcome_witness(t, run_test(t, delay()), run_test(t, delay())) is None


def test_output_image_witness_is_the_least_readout_in_one_image_only():
    t = Test("i", OutputImage(1))
    stuck = MooreMachine(CELL, BIT, "0", {(s, (a,)): "0" for s in BIT for a in BIT},
                         {s: (s,) for s in BIT})
    a, b = run_test(t, delay()), run_test(t, stuck)
    assert (a.value, b.value) == ((("0",), ("1",)), (("0",),))
    assert outcome_witness(t, a, b) == ("1",)
    t0 = Test("i0", OutputImage(0))
    assert outcome_witness(t0, run_test(t0, delay("1")), run_test(t0, delay())) \
        == ("0",)


def reference_image(m: MooreMachine, step: int) -> tuple:
    """The output image the slow way: one layer of states per step.

    ``step`` layers; the reference that output images are checked against.
    """
    inputs = input_space([m.box])
    layer = {m.init}
    for _ in range(step):
        layer = {m.update[(s, x)] for s in layer for x in inputs}
    return tuple(sorted({m.readout[s] for s in layer}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(0, 80))
def test_output_images_agree_with_the_reference(seed, composite, step):
    rng = random.Random(seed)
    m = some_machine(rng, composite)
    assert run_test(Test("i", OutputImage(step)), m).value == \
        reference_image(m, step)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 39), min_size=1, max_size=40),
       st.one_of(st.integers(0, 100), st.integers(0, 10 ** 12)))
def test_the_cycle_walk_equals_the_step_by_step_walk(table, n):
    # any map of a finite set into itself gives an eventually periodic
    # sequence; the walk advances at most n times, and at most 4 times
    # the table's size whatever n is
    size = len(table)
    table = [x % size for x in table]
    advances = 0

    def advance(x):
        nonlocal advances
        advances += 1
        return table[x]

    got = probes._nth(0, advance, n)
    assert advances <= min(n, 4 * size)
    # step by step; element ``size`` is on the cycle, so a step past it
    # is the one whole periods lead back to
    walk = [0]
    for _ in range(2 * size):
        walk.append(table[walk[-1]])
    period = walk.index(walk[size], size + 1) - size
    assert got == walk[n if n <= size else size + (n - size) % period]


def counter(counted: str, n: int) -> CompositeSystem:
    """A one-cell system that counts, modulo n, the steps whose input is
    ``counted``, and always reads 0."""
    states = tuple(str(k) for k in range(n))
    cell = MooreMachine(CELL, states, "0",
                        {(s, (a,)): str((int(s) + (a == counted)) % n)
                         for s in states for a in BIT},
                        {s: ("0",) for s in states})
    return CompositeSystem(identity_wiring(CELL), (cell,))


def test_the_pair_search_refuses_a_pair_space_over_the_limit(monkeypatch):
    # a word with i ones and j zeros leads the two counters to the pair
    # (i mod 64, j mod 64), so all 4096 pairs are reachable, and every one
    # reads alike; a limit of 2**12 transitions (2048 pairs of 2 inputs)
    # makes the refusal small
    monkeypatch.setattr(moore, "MAX_TRANSITIONS", 2 ** 12)
    systems = counter("1", 64), counter("0", 64)
    ones, zeros = (system.composite() for system in systems)
    assert separating_word(ones, zeros, 40) == (None, False)
    limit = (r"pair search reaches at least 20(49|50) state pairs x 2 inputs = "
             r"\d+ transitions, over the limit of 4096")
    tracemalloc.start()
    try:
        with pytest.raises(MachineError, match=limit):
            separating_word(ones, zeros, 10 ** 9)
        with pytest.raises(MachineError, match=limit):
            attack_diff(*systems, 10 ** 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the refused search holds about 2048 pairs
    assert peak < 1_000_000


def test_a_trace_test_over_the_limit_is_refused():
    # the airframe target's depth-300000 quotient would hold about 2.7
    # million rows x 4 inputs; it is refused once 2**18 rows are counted
    target = load(UAV / "target.yaml").machine
    t = Test("t", TraceSet(300_000))
    limit = (r"trace quotient would have at least \d+ rows x 4 inputs = \d+ "
             r"transitions, over the limit of 1048576")
    tracemalloc.start()
    try:
        with pytest.raises(MachineError, match=limit):
            run_test(t, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000
    # the fixture battery's depth is far below the limit
    assert len(run_test(Test("t", TraceSet(6)), target).value) == 6


def test_outcomes_must_match_their_test():
    t = Test("t", TraceSet(2))
    with pytest.raises(ProbeError):
        compare_outcomes(t, Outcome("other", ()), Outcome("t", ()))


def test_a_test_of_no_known_kind_is_refused():
    with pytest.raises(ProbeError, match="unknown test kind"):
        Test("x", [])


# ---------------------------------------------------------------------------
# outcomes kept on the machine
# ---------------------------------------------------------------------------

def fresh_copy(m: MooreMachine) -> MooreMachine:
    """An equal machine with plain tables and nothing kept on it yet."""
    return MooreMachine(m.box, m.states, m.init, dict(m.update),
                        dict(m.readout))


def random_test(rng: random.Random, name: str) -> Test:
    kind = rng.choice((TraceSet(rng.randint(0, 5)), StateSet(), Terminal(),
                       OutputImage(rng.randint(0, 4))))
    return Test(name, kind)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_kept_outcomes_equal_a_fresh_evaluation(seed, composite):
    # repeated and interleaved requests on one machine, composite tables
    # routed on demand or plain ones, against an uncached copy each time
    rng = random.Random(seed)
    if composite:
        m = apply_algebra(*random_network(rng))
    else:
        m = random_machine(rng, Box("b", (Port("a", BIT), Port("b", BIT)),
                                    (Port("q", BIT),)))
    battery = [random_test(rng, f"t{rng.randint(0, 3)}") for _ in range(4)]
    for _ in range(12):
        t = rng.choice(battery)
        assert run_test(t, m) == run_test(t, fresh_copy(m))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_no_test_sees_how_states_are_labelled(seed):
    # the four kinds, each on a composite and its relabelled copy
    rng = random.Random(seed)
    m = apply_algebra(*random_network(rng))
    copy = relabel(rng, m)
    kb = KnowledgeBase(m.box, (("m", m), ("other", random_machine(rng, m.box))))
    for kind in (TraceSet(rng.randint(0, 5)), StateSet(), Terminal(),
                 OutputImage(rng.randint(0, 4))):
        t = Test("t", kind)
        assert compare_outcomes(t, run_test(t, m), run_test(t, copy)), kind
        result = yoneda_filter(kb, (t,), MachineOracle(copy))
        assert "m" in result.candidates, kind


def test_threads_share_a_machine_and_its_kept_outcomes():
    # a fresh composite, so the threads also route its rows on demand;
    # every thread must see the value stored first, equal to the reference
    rng = random.Random(3)
    wiring, machines = random_network(rng)
    battery = [random_test(rng, f"t{k}") for k in range(8)]
    want = [run_test(t, apply_algebra(wiring, machines)) for t in battery]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            m = apply_algebra(wiring, machines)
            seen = [[] for _ in range(4)]

            def ask(k):
                order = list(range(len(battery)))
                random.Random(k).shuffle(order)
                seen[k].extend((i, run_test(battery[i], m)) for i in order)

            threads = [threading.Thread(target=ask, args=(k,))
                       for k in range(len(seen))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            for answers in seen:
                assert len(answers) == len(battery)
                for i, out in answers:
                    assert out == want[i]
                    assert out.value is run_test(battery[i], m).value
    finally:
        sys.setswitchinterval(interval)


def test_one_kb_across_many_targets_learns_as_fresh_ones_do():
    rng = random.Random(5)
    kb = load_kb_dir(UAV / "kb")
    for k in range(12):
        battery = tuple(random_test(rng, f"t{k}.{i}") for i in range(3))
        _, m = rng.choice(kb.entries)
        target = (relabel(rng, m), fresh_copy(m),
                  random_machine(rng, kb.box))[k % 3]
        fresh = KnowledgeBase(kb.box, tuple((n, fresh_copy(e))
                                            for n, e in kb.entries))
        assert yoneda_filter(kb, battery, MachineOracle(target)) == \
            yoneda_filter(fresh, battery, MachineOracle(target))


def test_tests_of_one_kind_keep_their_own_names():
    m = history()
    a, b = Test("short", TraceSet(3)), Test("also-short", TraceSet(3))
    oa, ob = run_test(a, m), run_test(b, m)
    assert (oa.test, ob.test) == ("short", "also-short")
    assert oa.value == ob.value and oa.inputs == ob.inputs
    assert compare_outcomes(b, ob, run_test(b, fresh_copy(m)))


def test_kept_outcomes_leave_equality_and_repr_alone():
    m = history()
    for t in BATTERY:
        run_test(t, m)
    assert m == fresh_copy(m)
    assert repr(m) == repr(fresh_copy(m))


# ---------------------------------------------------------------------------
# knowledge bases
# ---------------------------------------------------------------------------

def test_kb_rejects_duplicate_names():
    with pytest.raises(ProbeError):
        KnowledgeBase(CELL, (("m", delay()), ("m", inverter())))


def test_kb_rejects_wrong_box():
    other = Box("other", CELL.in_ports, CELL.out_ports)
    m = MooreMachine(other, BIT, "0",
                     {(s, (a,)): a for s in BIT for a in BIT},
                     {s: (s,) for s in BIT})
    with pytest.raises(ProbeError):
        KnowledgeBase(CELL, (("m", m),))


def test_kb_names_the_port_of_a_box_that_shares_its_name():
    renamed = Box("cell", CELL.in_ports, (Port("out", BIT),))
    m = MooreMachine(renamed, BIT, "0", delay().update, delay().readout)
    with pytest.raises(ProbeError) as e:
        KnowledgeBase(CELL, (("m", m),))
    assert str(e.value) == ("entry 'm' does not fit the knowledge base's box: "
                            "output port 'out' vs 'q' on box 'cell'")


# ---------------------------------------------------------------------------
# the learner
# ---------------------------------------------------------------------------

def full_kb() -> KnowledgeBase:
    return KnowledgeBase(CELL, (("delay", delay()), ("inverted", inverter()),
                                ("history", history())))


def test_learner_finds_exact_match():
    result = yoneda_filter(full_kb(), BATTERY, MachineOracle(delay()))
    assert result.classification == EXACT
    assert result.candidates == ("delay",)


def test_learner_reports_unknown_when_nothing_fits():
    stuck = MooreMachine(CELL, ("z",), "z",
                         {("z", (a,)): "z" for a in BIT}, {"z": ("0",)})
    result = yoneda_filter(full_kb(), BATTERY, MachineOracle(stuck))
    assert result.classification == UNKNOWN
    assert result.candidates == ()


def test_learner_reports_ambiguity_under_weak_battery():
    weak = (Test("point", Terminal()),)
    result = yoneda_filter(full_kb(), weak, MachineOracle(delay()))
    assert result.classification == AMBIGUOUS
    assert set(result.candidates) == {"delay", "inverted", "history"}


def test_trace_test_cannot_see_state_counts():
    # history behaves like delay; only the state count separates them
    behavioral = (Test("t", TraceSet(5)),)
    result = yoneda_filter(
        KnowledgeBase(CELL, (("delay", delay()), ("history", history()))),
        behavioral, MachineOracle(delay()))
    assert result.classification == AMBIGUOUS
    strict = behavioral + (Test("s", StateSet()),)
    result = yoneda_filter(
        KnowledgeBase(CELL, (("delay", delay()), ("history", history()))),
        strict, MachineOracle(delay()))
    assert result.candidates == ("delay",)


class CountingOracle:
    """Wraps a machine oracle and counts the questions asked."""

    def __init__(self, machine):
        self._inner = MachineOracle(machine)
        self.calls = 0

    @property
    def box(self):
        return self._inner.box

    def outcome(self, test):
        self.calls += 1
        return self._inner.outcome(test)


def test_a_battery_whose_test_names_repeat_is_refused():
    # answers are kept by test name, so a repeated name would compare one
    # test's outcomes against another test's answer
    kb = load_kb_dir(UAV / "kb")
    target = load(UAV / "target.yaml").machine
    traces = Test("t", TraceSet(6))
    oracle = CountingOracle(target)
    with pytest.raises(ProbeError) as exc:
        yoneda_filter(kb, (traces, Test("t", StateSet())), oracle)
    assert str(exc.value) == "test names repeat"
    assert oracle.calls == 0
    result = yoneda_filter(kb, (traces,), MachineOracle(target))
    assert (result.candidates, result.classification) == (("profile-stock",), EXACT)


def test_one_oracle_query_per_test():
    oracle = CountingOracle(delay())
    yoneda_filter(full_kb(), BATTERY, oracle)
    assert oracle.calls == len(BATTERY)


class RefusingOracle:
    """Answers nothing but the one-point test."""

    def __init__(self, machine):
        self._inner = MachineOracle(machine)

    @property
    def box(self):
        return self._inner.box

    def outcome(self, test):
        if not isinstance(test.kind, Terminal):
            raise OracleError(f"cannot answer {test.name}")
        return self._inner.outcome(test)


def test_unanswered_tests_are_skipped_not_fatal():
    result = yoneda_filter(full_kb(), BATTERY, RefusingOracle(delay()))
    assert set(result.incomplete) == {"traces-4", "state-count", "image-2"}
    assert result.classification == AMBIGUOUS  # only the point test answered
    assert all(v is None for _, t, v in result.matrix if t != "point")


def test_learner_refuses_a_target_on_another_box():
    other = Box("other", CELL.in_ports, CELL.out_ports)
    target = MooreMachine(other, BIT, "0", delay().update, delay().readout)
    with pytest.raises(ProbeError, match="'other'.*'cell'"):
        yoneda_filter(full_kb(), BATTERY, MachineOracle(target))


def test_learner_names_the_port_of_a_target_box_that_shares_its_name():
    renamed = Box("cell", (Port("b", BIT),), CELL.out_ports)
    target = MooreMachine(renamed, BIT, "0", delay().update, delay().readout)
    with pytest.raises(ProbeError) as e:
        yoneda_filter(full_kb(), BATTERY, MachineOracle(target))
    assert str(e.value) == ("target does not fit the knowledge base's box: "
                            "input port 'b' vs 'a' on box 'cell'")


def test_battery_order_is_irrelevant():
    fwd = yoneda_filter(full_kb(), BATTERY, MachineOracle(delay()))
    rev = yoneda_filter(full_kb(), BATTERY[::-1], MachineOracle(delay()))
    assert set(fwd.candidates) == set(rev.candidates)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 4))
def test_more_tests_never_grow_the_candidate_set(seed, cut):
    rng = random.Random(seed)
    kb = KnowledgeBase(CELL, tuple(
        (f"m{i}", random_machine(rng, CELL)) for i in range(4)))
    target = MachineOracle(random_machine(rng, CELL))
    small = yoneda_filter(kb, BATTERY[:cut], target)
    full = yoneda_filter(kb, BATTERY, target)
    assert set(full.candidates) <= set(small.candidates)


# ---------------------------------------------------------------------------
# a two-cell chain
# ---------------------------------------------------------------------------

def chain() -> Wiring:
    outer = Box("two", CELL.in_ports, CELL.out_ports)
    return Wiring((CELL, CELL), (outer,),
                  {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(1, "q")})
