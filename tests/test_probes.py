"""Behavioral tests, outcomes, knowledge bases, and the learner."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import BIT, random_machine
from wirebox.moore import MachineError, MachineHom, MooreMachine, apply_algebra
from wirebox.probes import (AMBIGUOUS, CARDINALITY, EQUALITY, EXACT, UNKNOWN,
                            KnowledgeBase, MachineOracle, OracleError, Outcome,
                            OutputImage, ProbeError, StateSet, Terminal, Test,
                            TraceSet, architecture_probe, compare_outcomes,
                            outcome_witness, run_test, transport_outcome,
                            yoneda_filter)
from wirebox.wiring import Box, OuterIn, InnerOut, Port, Wiring, identity_wiring

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


# ---------------------------------------------------------------------------
# tests and outcomes
# ---------------------------------------------------------------------------

def test_trace_outcome_covers_every_word():
    out = run_test(Test("t", TraceSet(2)), delay())
    assert len(out.value) == 4  # two binary steps
    words = [w for w, _ in out.value]
    assert words == sorted(words)


def test_state_set_outcome_renders_states():
    out = run_test(Test("s", StateSet()), history())
    assert out.value == ("00", "01", "10", "11")


def test_terminal_outcome_is_constant():
    assert run_test(Test("p", Terminal()), delay()).value == \
        run_test(Test("p", Terminal()), history()).value == ("*",)


def test_output_image_walks_exact_depth():
    # from init "00", two steps reach any pair; image is both readouts
    out = run_test(Test("i", OutputImage(2)), history())
    assert out.value == (("0",), ("1",))
    at_zero = run_test(Test("i", OutputImage(0)), history())
    assert at_zero.value == (("0",),)


def test_output_image_names_a_missing_row():
    # an unvalidated machine: the loader would have rejected both
    d = delay()
    update = {k: v for k, v in d.update.items() if k != ("1", ("1",))}
    with pytest.raises(MachineError, match=r"no update for state 1 on input \('1',\)"):
        run_test(Test("i", OutputImage(2)), MooreMachine(CELL, BIT, "0", update,
                                                         d.readout))
    with pytest.raises(MachineError, match="no readout for state 1"):
        run_test(Test("i", OutputImage(1)), MooreMachine(CELL, BIT, "0", d.update,
                                                         {"0": ("0",)}))


def test_default_comparator_counts_states_only():
    t = Test("s", StateSet())
    assert t.comparator == CARDINALITY
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


def test_outcomes_must_match_their_test():
    t = Test("t", TraceSet(2))
    with pytest.raises(ProbeError):
        compare_outcomes(t, Outcome("other", ()), Outcome("t", ()))


def test_transport_maps_state_sets_along_hom():
    hom = MachineHom(history(), delay(), {s: s[1] for s in history().states})
    t = Test("s", StateSet())
    carried = transport_outcome(t, hom, run_test(t, history()))
    assert carried.value == ("0", "1")
    # traces pass through untouched
    tt = Test("t", TraceSet(2))
    out = run_test(tt, history())
    assert transport_outcome(tt, hom, out) is out


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


def test_kb_lookup():
    kb = KnowledgeBase(CELL, (("d", delay()),))
    assert kb.machine("d") == delay()
    with pytest.raises(ProbeError):
        kb.machine("x")


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
# architecture probing
# ---------------------------------------------------------------------------

def chain() -> Wiring:
    outer = Box("two", CELL.in_ports, CELL.out_ports)
    return Wiring((CELL, CELL), (outer,),
                  {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(1, "q")})


def test_architecture_probe_identifies_decomposition():
    target = MachineOracle(apply_algebra(chain(), (delay(), delay())))
    outer = Box("two", CELL.in_ports, CELL.out_ports)
    flat = identity_wiring(outer)
    two = MooreMachine(outer, ("a", "b", "c"), "a",
                       {("a", ("0",)): "a", ("a", ("1",)): "b",
                        ("b", ("0",)): "a", ("b", ("1",)): "b",
                        ("c", ("0",)): "a", ("c", ("1",)): "b"},
                       {"a": ("0",), "b": ("1",), "c": ("0",)})
    result = architecture_probe(
        target,
        (("chained", chain(), (delay(), delay())),
         ("single", flat, (two,))),
        depth=4)
    assert result.candidates == ("chained",)


def test_architecture_probe_rejects_wrong_boundary():
    target = MachineOracle(delay())
    with pytest.raises(ProbeError):
        architecture_probe(target, (("bad", chain(), (delay(), delay())),), 3)


def test_architecture_probe_without_an_answer_keeps_every_hypothesis():
    # as yoneda_filter does for any battery: no answer eliminates nobody
    target = RefusingOracle(apply_algebra(chain(), (delay(), delay())))
    result = architecture_probe(
        target,
        (("chained", chain(), (delay(), delay())),
         ("inverted", chain(), (inverter(), delay()))),
        depth=3)
    assert result.candidates == ("chained", "inverted")
    assert result.classification == AMBIGUOUS
    assert result.matrix == (("chained", "traces-3", None),
                             ("inverted", "traces-3", None))
    assert result.incomplete == ("traces-3",)


def test_architecture_probe_rejects_repeated_hypothesis_names():
    target = MachineOracle(apply_algebra(chain(), (delay(), delay())))
    with pytest.raises(ProbeError, match="repeats an entry name"):
        architecture_probe(
            target,
            (("h", chain(), (delay(), delay())),
             ("h", chain(), (inverter(), delay()))),
            3)
