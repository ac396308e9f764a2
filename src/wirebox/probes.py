"""Behavioral tests, outcome comparison, and learning by elimination.

A Test assigns every machine on a fixed box an outcome: its set of
bounded traces, its state set, a one-point set, or the outputs reachable
at an exact step.  Outcomes are canonical (sorted tuples) so equal
behavior gives equal values, and each test carries a comparator saying
what counts as agreement: literal equality, or bare cardinality for state
sets, whose labels mean nothing.

Machine morphisms act on outcomes too: traces are preserved as they are,
state sets map along the state map, the one-point outcome is constant.
``transport_outcome`` implements that action.

``yoneda_filter`` is the learner: it compares a black-box target against
known machines, test by test, and keeps the candidates that agree
everywhere.  Target data comes only through the oracle interface; the
learner never touches a target machine directly.  ``architecture_probe``
runs it over the composites of candidate decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Union

from .moore import (MachineError, MachineHom, MooreMachine, apply_algebra,
                    render_state, run)
from .wiring import Box, Wiring, input_space


class ProbeError(Exception):
    """Bad test data or mismatched outcome comparison."""


class OracleError(Exception):
    """The target oracle could not answer a test."""


# ---------------------------------------------------------------------------
# test kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSet:
    """All (word, outputs) pairs for words of exactly the given length."""
    depth: int


@dataclass(frozen=True)
class StateSet:
    """The machine's state set, rendered; compare by cardinality."""


@dataclass(frozen=True)
class Terminal:
    """The one-point outcome; every machine agrees."""


@dataclass(frozen=True)
class OutputImage:
    """Readouts of states reachable in exactly the given number of steps."""
    step: int


TestKind = Union[TraceSet, StateSet, Terminal, OutputImage]

EQUALITY = "equality"
CARDINALITY = "cardinality"


def default_comparator(kind: TestKind) -> str:
    return CARDINALITY if isinstance(kind, StateSet) else EQUALITY


@dataclass(frozen=True)
class Test:
    """A named behavioral test with an outcome comparator."""

    __test__ = False  # not a unit test, despite the name

    name: str
    kind: TestKind
    comparator: str = ""

    def __post_init__(self):
        if not self.comparator:
            object.__setattr__(self, "comparator", default_comparator(self.kind))
        if self.comparator not in (EQUALITY, CARDINALITY):
            raise ProbeError(f"unknown comparator {self.comparator!r}")
        if isinstance(self.kind, TraceSet) and self.kind.depth < 0:
            raise ProbeError("trace depth must be nonnegative")
        if isinstance(self.kind, OutputImage) and self.kind.step < 0:
            raise ProbeError("output image step must be nonnegative")


@dataclass(frozen=True)
class Outcome:
    """The value a test takes on a machine; values are canonical tuples."""

    test: str
    value: tuple


def run_test(test: Test, m: MooreMachine) -> Outcome:
    """Evaluate a test on a machine."""
    kind = test.kind
    if isinstance(kind, TraceSet):
        inputs = input_space([m.box])
        pairs = []
        for word in itertools.product(inputs, repeat=kind.depth):
            pairs.append((word, tuple(run(m, word))))
        return Outcome(test.name, tuple(sorted(pairs)))
    if isinstance(kind, StateSet):
        return Outcome(test.name, tuple(sorted(render_state(s) for s in m.states)))
    if isinstance(kind, Terminal):
        return Outcome(test.name, ("*",))
    if isinstance(kind, OutputImage):
        inputs = input_space([m.box])
        layer = {m.init}
        try:
            for _ in range(kind.step):
                layer = {m.update[(s, x)] for s in layer for x in inputs}
        except KeyError as e:
            s, x = e.args[0]
            raise MachineError(
                f"no update for state {render_state(s)} on input {x}") from None
        try:
            image = {m.readout[s] for s in layer}
        except KeyError as e:
            raise MachineError(
                f"no readout for state {render_state(e.args[0])}") from None
        return Outcome(test.name, tuple(sorted(image)))
    raise ProbeError(f"unknown test kind {kind!r}")


def compare_outcomes(test: Test, a: Outcome, b: Outcome) -> bool:
    """Agreement under the test's comparator."""
    if a.test != test.name or b.test != test.name:
        raise ProbeError(
            f"outcomes {a.test!r}/{b.test!r} do not belong to test {test.name!r}")
    if test.comparator == CARDINALITY:
        return len(a.value) == len(b.value)
    return a.value == b.value


def outcome_witness(test: Test, a: Outcome, b: Outcome):
    """First element where two disagreeing outcomes differ, for reports."""
    if compare_outcomes(test, a, b):
        return None
    if test.comparator == CARDINALITY:
        return (len(a.value), len(b.value))
    sa, sb = set(a.value), set(b.value)
    only = sorted(sa.symmetric_difference(sb))
    return only[0] if only else (a.value, b.value)


def transport_outcome(test: Test, hom: MachineHom, outcome: Outcome) -> Outcome:
    """How a machine morphism carries a source outcome to the target.

    Trace sets and output images are untouched (morphisms preserve
    behavior), state sets map along the state map, the one-point outcome
    is constant.
    """
    if outcome.test != test.name:
        raise ProbeError(f"outcome {outcome.test!r} is not from {test.name!r}")
    kind = test.kind
    if isinstance(kind, (TraceSet, OutputImage)):
        return outcome
    if isinstance(kind, Terminal):
        return Outcome(test.name, ("*",))
    if isinstance(kind, StateSet):
        rendered = {render_state(s): render_state(t)
                    for s, t in hom.state_map.items()}
        mapped = {rendered[v] for v in outcome.value}
        return Outcome(test.name, tuple(sorted(mapped)))
    raise ProbeError(f"unknown test kind {kind!r}")


# ---------------------------------------------------------------------------
# knowledge bases and the learner
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """Named machines on one box, the learner's space of hypotheses."""

    box: Box
    entries: tuple[tuple[str, MooreMachine], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ProbeError("knowledge base repeats an entry name")
        for n, m in self.entries:
            if m.box != self.box:
                raise ProbeError(
                    f"entry {n!r} inhabits box {m.box.name!r}, expected "
                    f"{self.box.name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def machine(self, name: str) -> MooreMachine:
        for n, m in self.entries:
            if n == name:
                return m
        raise ProbeError(f"no knowledge base entry {name!r}")


class TargetOracle(Protocol):
    """Black-box access to the system under test.

    The learner sees the target's interface and its answers to tests,
    nothing else.
    """

    @property
    def box(self) -> Box: ...

    def outcome(self, test: Test) -> Outcome: ...


class MachineOracle:
    """Answers tests by running them on a machine it keeps to itself."""

    def __init__(self, machine: MooreMachine):
        self._machine = machine

    @property
    def box(self) -> Box:
        return self._machine.box

    def outcome(self, test: Test) -> Outcome:
        return run_test(test, self._machine)


EXACT = "exact"
AMBIGUOUS = "ambiguous"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LearnResult:
    """Who survived, how that classifies, and the full verdict matrix.

    ``matrix`` holds one (entry, test, verdict) triple per comparison in
    battery order; verdict None means the oracle could not answer and the
    test's name is recorded in ``incomplete``.
    """

    candidates: tuple[str, ...]
    classification: str
    matrix: tuple[tuple[str, str, Optional[bool]], ...]
    incomplete: tuple[str, ...] = ()


def _classify(candidates: Sequence[str]) -> str:
    if len(candidates) == 1:
        return EXACT
    return UNKNOWN if not candidates else AMBIGUOUS


def yoneda_filter(kb: KnowledgeBase, battery: Sequence[Test],
                  oracle: TargetOracle) -> LearnResult:
    """Eliminate knowledge base entries that disagree with the target.

    For each test, the target's outcome is requested from the oracle once
    and compared against each entry's outcome under the test's comparator.
    Entries surviving every answered test are the candidates.  A test the
    oracle cannot answer is skipped and reported, never fatal.
    """
    answers: dict[str, Optional[Outcome]] = {}
    incomplete: list[str] = []
    for t in battery:
        try:
            answers[t.name] = oracle.outcome(t)
        except OracleError:
            answers[t.name] = None
            incomplete.append(t.name)
    matrix: list[tuple[str, str, Optional[bool]]] = []
    alive = dict.fromkeys(kb.names, True)
    for name, machine in kb.entries:
        for t in battery:
            target = answers[t.name]
            if target is None:
                matrix.append((name, t.name, None))
                continue
            agree = compare_outcomes(t, run_test(t, machine), target)
            matrix.append((name, t.name, agree))
            if not agree:
                alive[name] = False
    candidates = tuple(n for n, ok in alive.items() if ok)
    return LearnResult(candidates, _classify(candidates), tuple(matrix),
                       tuple(incomplete))


def architecture_probe(oracle: TargetOracle,
                       hypotheses: Sequence[tuple[str, Wiring, Sequence[MooreMachine]]],
                       depth: int) -> LearnResult:
    """Which candidate decompositions are consistent with the target?

    Each hypothesis is a named wiring plus machines for its inner boxes;
    its composite must inhabit the target's box.  ``yoneda_filter`` runs
    the composites, as a knowledge base, against the target on bounded
    traces of the given depth, so internals the traces cannot see
    (redundant components, equivalent machines) stay indistinguishable.
    Names must be distinct; an oracle that cannot answer leaves every
    hypothesis a candidate.
    """
    for name, wiring, _ in hypotheses:
        if len(wiring.outer) != 1 or wiring.outer[0] != oracle.box:
            raise ProbeError(
                f"hypothesis {name!r} does not compose to the target's box")
    kb = KnowledgeBase(oracle.box, tuple((name, apply_algebra(w, ms))
                                         for name, w, ms in hypotheses))
    return yoneda_filter(kb, (Test(f"traces-{depth}", TraceSet(depth)),), oracle)
