"""Behavioral tests, outcome comparison, and learning by elimination.

A Test assigns every machine on a fixed box an outcome: its set of
bounded traces, its state set, a one-point set, or the outputs reachable
at an exact step.  The kind decides what counts as agreement: state
sets, whose labels mean nothing, agree when they are equally large, and
every other outcome when the values are equal, so no test can see how a
machine's states are named.  Those other values are canonical, so equal
behavior gives equal values: output images are sorted tuples, and a
trace set is its layered quotient (see ``TraceSet``), built in one
forward and one backward pass, which costs O(d·|S|·|I|) instead of
running all |I|^d words.  An output image walks layers of reachable
states, which repeat, so its cost is bounded by their tail and cycle
whatever the step (see ``_nth``).  A value depends on the test's kind
alone, so ``run_test`` computes it once per machine object and kind and
keeps it on the machine: a knowledge base asked many queries pays for
each entry's outcomes once.

Every walk here steps the integers of a machine's numbering
(``moore._numbered``).  ``separating_word`` is the one search for an
input word that separates two machines: breadth first over the pairs of
states a word leads them to, each pair one integer, inputs in order,
each pair kept with the first word that reaches it.
``attacks.attack_diff`` runs it on two composites, and
``outcome_witness`` on two trace quotients numbered alike, so both name
the shortest word, least in declared alphabet order.  It closes at a
level that adds no pair, and says so; like a composite, it refuses to
hold more than ``MAX_TRANSITIONS`` pairs times inputs, and so does a
trace quotient with its rows.  ``oracle.find_distinguishing_word`` is
its reference.  A search that closed proves every trace test and every
output image equal; otherwise its result decides every trace test but
one deeper than a search that found no word, and proves equal the
output images of the steps shorter words reach (``search_verdict``).  So
``attack_diff`` runs only the tests it leaves open; ``run_test`` and
``compare_outcomes`` stay their reference.

``yoneda_filter`` is the learner: it compares a black-box target against
known machines, test by test, and keeps the candidates that agree
everywhere.  Target data comes only through the oracle interface; the
learner never touches a target machine directly.  A knowledge base may
hold composites, so the same filter tells candidate decompositions
apart: a scenario's ``kb`` rows name systems as well as machines.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Protocol, Union

from . import Record, WireboxError, _kept, moore
from .moore import MooreMachine
from .wiring import Box, _box_mismatch, input_space


class ProbeError(WireboxError):
    """Bad test data or mismatched outcome comparison."""


class OracleError(WireboxError):
    """The target oracle could not answer a test."""


# ---------------------------------------------------------------------------
# test kinds
# ---------------------------------------------------------------------------

class TraceSet(Record):
    """All (word, outputs) pairs for words of exactly the given length.

    The outcome is the set's layered quotient, the minimal acyclic
    automaton of the pairs.  Layer k holds the classes of the states
    reachable in exactly k steps under (depth-k)-step trace equivalence,
    numbered in order of first reach from ``init``: the layer's states
    are taken as first reached (the layer before's states in order, each
    one's successors in ``input_space`` order), and each class is
    numbered when its first state is met.  The value has one entry per
    layer, a tuple of ``(readout, successor class ids...)`` rows,
    successors in input order; rows of the last layer hold the readout
    alone.  Two machines on one box have equal values exactly when every
    word of the given length gives them equal outputs, whatever their
    states are called.
    """
    depth: int


class StateSet(Record):
    """The machine's state set; two state sets agree when they are
    equally large.

    The value is the machine's own ``states``, nothing rendered or
    sorted, so a composite's state set is counted without walking its
    product (see ``moore.apply_algebra``).
    """


class Terminal(Record):
    """The one-point outcome; every machine agrees."""


class OutputImage(Record):
    """Readouts of states reachable in exactly the given number of steps."""
    step: int


TestKind = Union[TraceSet, StateSet, Terminal, OutputImage]

class Test(Record):
    """A named behavioral test; its kind decides how outcomes compare."""

    __test__ = False  # not a unit test, despite the name

    name: str
    kind: TestKind

    def __post_init__(self):
        if not isinstance(self.kind, (TraceSet, StateSet, Terminal, OutputImage)):
            raise ProbeError(f"unknown test kind {self.kind!r}")
        if isinstance(self.kind, TraceSet) and self.kind.depth < 0:
            raise ProbeError("trace depth must be nonnegative")
        if isinstance(self.kind, OutputImage) and self.kind.step < 0:
            raise ProbeError("output image step must be nonnegative")


def search_verdict(test: Test, word, depth: int,
                   closed: bool) -> Optional[bool]:
    """The verdict on ``test`` that ``(word, closed)``, what
    ``separating_word(a, b, depth)`` returned, proves for machines ``a``
    and ``b``, or None when it proves none.

    A word of length n reads the outputs of the states 0 to n - 1 steps
    reach.  A search that closed met every pair of states the two
    machines reach together, and every pair gave equal outputs, so every
    word does: every trace test and every output image agrees.
    Otherwise let ``clear`` be the word's length L, or ``depth + 1``
    when the search found none.  The search is breadth first, so every
    word shorter than ``clear`` gives the two machines equal outputs, and
    when it found a word, the two give different outputs on it (Moore,
    1956: every experiment shorter than the shortest distinguishing one
    agrees).  Then:

    * ``TraceSet(d)`` with d < ``clear``: every word of length d gives
      equal outputs, so the trace sets, and their canonical quotients,
      are equal.  With a word found and d >= L, every word of length d
      that starts with it gives different outputs, so they disagree.
      With no word found and d > ``depth``, nothing is proved.
    * ``OutputImage(k)`` with k + 1 < ``clear``: every word of length
      k + 1 gives equal outputs, the last of which is the readout of
      the state k steps reach, so the two images are the same set.
      Otherwise a word may differ at step k while the images are still
      equal, so nothing is proved.
    * A state set or the one-point outcome is no view of the traces.

    What is left undecided goes through ``run_test`` and
    ``compare_outcomes``, the reference for every verdict.
    """
    kind = test.kind
    if closed and isinstance(kind, (TraceSet, OutputImage)):
        return True
    clear = depth + 1 if word is None else len(word)
    if isinstance(kind, TraceSet):
        if word is None and kind.depth > depth:
            return None
        return kind.depth < clear
    if isinstance(kind, OutputImage) and kind.step + 1 < clear:
        return True
    return None


class Outcome(Record):
    """The value a test takes on a machine; values are canonical tuples,
    except a state set's, which is the machine's own ``states`` (see
    ``StateSet``).

    A trace outcome also records the box's input tuples, in the order its
    successor columns follow, so a witness can name a word; other
    outcomes leave ``inputs`` empty.
    """

    test: str
    value: Sequence
    inputs: tuple = ()


def run_test(test: Test, m: MooreMachine) -> Outcome:
    """Evaluate a test on a machine.

    An outcome's value depends on the test's kind alone, so it is
    computed once per machine object and kind, kept on the machine
    outside its fields, and reused by every later test of that kind under
    the later test's own name.  Two threads sharing a machine may both
    compute a value; the first one stored wins.
    """
    outcomes = _kept(m, "_outcomes", lambda m: {})
    kept = outcomes.get(test.kind)
    if kept is None:
        kept = outcomes.setdefault(test.kind, _outcome_value(test.kind, m))
    return Outcome(test.name, *kept)


def _outcome_value(kind: TestKind, m: MooreMachine) -> tuple:
    """The ``(value, inputs)`` pair of an outcome of the given kind."""
    if isinstance(kind, TraceSet):
        inputs = tuple(input_space([m.box]))
        return _trace_quotient(m, kind.depth), inputs
    if isinstance(kind, StateSet):
        return m.states, ()
    if isinstance(kind, Terminal):
        return ("*",), ()
    # an OutputImage, the one kind left that Test admits
    num = moore._numbered(m)
    succ, n = num.succ, len(num.column)

    def advance(layer):
        return {t for k in layer for t in succ[k * n:k * n + n]}

    layer = _nth({0}, advance, kind.step)
    return tuple(sorted({num.readouts[k] for k in layer})), ()


def _nth(first, advance, n: int):
    """Element ``n`` of the sequence ``first``, ``advance(first)``, ...,
    which must be eventually periodic, as a machine's layers are.

    Brent's cycle finding holds two elements: the walker, and a resting
    one that moves up to the walker after it has rested 1, 2, 4, ...
    steps.  When the walker meets the resting one, ``lam`` steps on, the
    sequence repeats every ``lam`` steps from there, so the walk skips
    whole periods.  It advances at most ``n`` times, and at most four
    times the length of the sequence's tail and cycle whatever ``n`` is.
    """
    resting = element = first
    lam, power = 0, 1
    for k in range(1, n + 1):
        element, lam = advance(element), lam + 1
        if element == resting:
            # element k is element k - lam
            return _nth(element, advance, (n - k) % lam)
        if lam == power:
            resting, power, lam = element, 2 * power, 0
    return element


def _trace_quotient(m: MooreMachine, depth: int) -> tuple:
    """The layered quotient of the machine's traces of length ``depth``.

    A forward pass collects each layer's state numbers in order of first
    reach (see ``TraceSet``); a backward pass classes every layer by
    signature (readout, then the successors' classes in the next layer),
    numbering each class as it first meets it, and the signatures are the
    layer's rows.  States of one class have the same successor classes,
    so the numbering is the one a walk over classes would give.  The rows
    of the value are counted layer by layer, and a value of more than
    ``MAX_TRANSITIONS`` rows times inputs is refused before it is built.
    """
    num = moore._numbered(m)
    succ, readouts, n = num.succ, num.readouts, len(num.column)
    layers = []  # per layer, state -> class id, filled by the backward pass
    layer = {0: None}
    most, built = moore.MAX_TRANSITIONS // n, 0
    for _ in range(depth):
        built += len(layer)
        if built > most:
            raise moore._over_the_limit("trace quotient would have at least",
                                        built, n, "rows")
        layers.append(layer)
        layer = dict.fromkeys([t for k in layer for t in succ[k * n:k * n + n]])
    value = []
    below: dict[int, int] = {}
    for k in reversed(range(depth)):
        classes: dict[tuple, int] = {}
        last = k == depth - 1
        for s in layers[k]:
            sig = (readouts[s],) if last else (
                readouts[s], *[below[t] for t in succ[s * n:s * n + n]])
            layers[k][s] = classes.setdefault(sig, len(classes))
        value.append(tuple(classes))
        below = layers[k]
    value.reverse()
    return tuple(value)


def compare_outcomes(test: Test, a: Outcome, b: Outcome) -> bool:
    """Agreement as the test's kind decides it: state sets by count,
    everything else by value."""
    if a.test != test.name or b.test != test.name:
        raise ProbeError(
            f"outcomes {a.test!r}/{b.test!r} do not belong to test {test.name!r}")
    if isinstance(test.kind, StateSet):
        return len(a.value) == len(b.value)
    return a.value == b.value and a.inputs == b.inputs


def outcome_witness(test: Test, a: Outcome, b: Outcome):
    """First element where two disagreeing outcomes differ, for reports.

    For trace outcomes that is ``separating_word``'s word, found on the two
    quotients read as machines (``_quotient_numbering``).
    """
    if compare_outcomes(test, a, b):
        return None
    if isinstance(test.kind, StateSet):
        return (len(a.value), len(b.value))
    if isinstance(test.kind, TraceSet):
        if a.inputs != b.inputs:
            raise ProbeError("trace outcomes over different inputs have no witness")
        word, _ = _separating_word(_quotient_numbering(a),
                                   _quotient_numbering(b), len(a.value))
        return word
    sa, sb = set(a.value), set(b.value)
    only = sorted(sa.symmetric_difference(sb))
    return only[0] if only else (a.value, b.value)


def _quotient_numbering(q: Outcome) -> moore._Numbering:
    """A trace outcome read as a machine, states ``(layer, class)`` in
    layer order; the last layer's rows, which the search never steps,
    lead to themselves."""
    rows = [row for layer in q.value for row in layer]
    states = [(k, i) for k, layer in enumerate(q.value) for i in range(len(layer))]
    index = {s: k for k, s in enumerate(states)}
    succ = [index[(k + 1, j)] for (k, _), row in zip(states, rows) for j in row[1:]]
    succ += [k for k in range(len(succ) // len(q.inputs), len(rows)) for _ in q.inputs]
    return moore._Numbering(states, index, succ, [row[0] for row in rows],
                            {x: j for j, x in enumerate(q.inputs)})


def separating_word(a: MooreMachine, b: MooreMachine, depth: int) -> tuple:
    """``(word, closed)``: the shortest word of length ``depth`` or less,
    least among equals in ``input_space`` order, on which two machines on
    one box give different outputs, or None; and whether the search,
    finding none, closed: no pair of states that words of length
    ``depth`` or less reach leads to a pair they do not.  See the module
    docstring for the search."""
    if a.box != b.box:
        raise ProbeError(f"machines on different boxes: {_box_mismatch(a.box, b.box)}")
    return _separating_word(moore._numbered(a), moore._numbered(b), depth)


def _separating_word(a: moore._Numbering, b: moore._Numbering, depth: int):
    inputs, nb = tuple(a.column), len(b.readouts)
    n, most = len(inputs), moore.MAX_TRANSITIONS // len(inputs)
    sa, sb, ra, rb = a.succ, b.succ, a.readouts, b.readouts
    # pair (ka, kb) is ka * nb + kb; came maps it to the pair before
    # times n plus the input's column, along the first word that reaches it
    came: dict[int, Optional[int]] = {0: None}
    queue = [0] if depth > 0 else []
    more = not queue  # whether a pair leads past the last level
    k, level_end = 1, 1  # queue[:level_end] holds the pairs words of k reach
    for i, pair in enumerate(queue):
        if i == level_end:
            k, level_end = k + 1, len(queue)
        ka, kb = divmod(pair, nb)
        if ra[ka] != rb[kb]:
            word = [inputs[0]]
            while came[pair] is not None:
                pair, j = divmod(came[pair], n)
                word.append(inputs[j])
            return tuple(reversed(word)), False
        ia, ib = ka * n, kb * n
        if k < depth:
            for j in range(n):
                t = sa[ia + j] * nb + sb[ib + j]
                if t not in came:
                    came[t] = pair * n + j
                    queue.append(t)
        elif not more:
            # the last level's successors are looked up, not stored
            more = any(sa[ia + j] * nb + sb[ib + j] not in came
                       for j in range(n))
        if len(came) > most:
            raise moore._over_the_limit("pair search reaches at least",
                                        len(came), len(inputs), "state pairs")
    return None, not more


# ---------------------------------------------------------------------------
# knowledge bases and the learner
# ---------------------------------------------------------------------------

class KnowledgeBase(Record, eq=False):
    """Named machines on one box, the learner's space of hypotheses."""

    box: Box
    entries: tuple[tuple[str, MooreMachine], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ProbeError("knowledge base repeats an entry name")
        for n, m in self.entries:
            if m.box.name != self.box.name:
                raise ProbeError(
                    f"entry {n!r} inhabits box {m.box.name!r}, expected "
                    f"{self.box.name!r}")
            if m.box != self.box:
                raise ProbeError(f"entry {n!r} does not fit the knowledge "
                                 f"base's box: {_box_mismatch(m.box, self.box)}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


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


class LearnResult(Record):
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
    and compared against each entry's outcome as the test's kind decides.
    Entries surviving every answered test are the candidates.  A test the
    oracle cannot answer is skipped and reported, never fatal.  A target
    on another box than the knowledge base's is refused, and so is a
    battery whose test names repeat, before the oracle is asked anything:
    answers are kept by test name.
    """
    names = [t.name for t in battery]
    if len(set(names)) != len(names):
        raise ProbeError("test names repeat")
    if oracle.box.name != kb.box.name:
        raise ProbeError(f"target inhabits box {oracle.box.name!r}, expected "
                         f"the knowledge base's box {kb.box.name!r}")
    if oracle.box != kb.box:
        raise ProbeError(f"target does not fit the knowledge base's box: "
                         f"{_box_mismatch(oracle.box, kb.box)}")
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

