"""Attacks on wired systems: component rewrites and connection rewires.

A CompositeSystem is a wiring into one box together with a machine per
inner slot.  A step, plain data, maps a system to a system.  A
RewriteStep replaces the machine in one slot (``apply_rewrite``); with a
state map it is a machine morphism from the current component to the
replacement, checked when applied.  A RewireStep precomposes the wiring
with an endomorphism of one slot's box (``apply_rewire``), rerouting
that component while leaving every machine untouched.

A script, an ordered list of steps, is folded through those two
functions by ``apply_script``, which the scenario.v1 loader runs once
per script, keeping the result.  Its log keeps each step with the
systems before and after it, and computes on read its text,
fingerprints and a morphism rewrite's witness: the morphism lifted to
the composites, certifying how the attack transforms whole-system
state.  The fingerprints are in ``fingerprints``, which the first read
of one imports; ``attacks.fingerprint_wiring`` and
``attacks.fingerprint_components`` resolve there.  A Scenario bundles
named systems with the correspondence between an attacker's view and
the real system, a knowledge base built on its first read, a test
battery, and named scripts.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from . import Record, WireboxError, _kept, moore, probes, wiring as wi
from .moore import (MachineError, MachineHom, MooreMachine, _machines_fit,
                    apply_algebra, lift_hom)
from .wiring import Wiring


class AttackError(WireboxError):
    """A step that does not apply to the system it was aimed at."""

    def __init__(self, message: str, log: tuple = ()):
        super().__init__(message)
        self.log = log


class CompositeSystem(Record):
    """A wiring into a single box plus one machine per inner slot; a
    misfit raises ``apply_algebra``'s MachineError.  A step's result is
    built unchecked (``Record._built``): ``check_step`` has checked the
    slot it changes, and the boundary stays the same."""

    wiring: Wiring
    components: tuple[MooreMachine, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        _machines_fit(self.wiring, self.components)

    @property
    def box(self):
        return self.wiring.outer[0]

    def composite(self) -> MooreMachine:
        """The machine the whole system presents on its outer box.

        Built on the first call and kept (``_kept``): the system is
        immutable, and the composite keeps the rows it numbered and its
        tables the rows they read, so a diff and a step's witness build
        each once.
        """
        return _kept(self, "_composite",
                     lambda sys: apply_algebra(sys.wiring, sys.components))


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

class RewriteStep(Record, eq=False):
    """Replace the component at ``index`` with ``machine``; with a
    ``state_map``, along the morphism from the component the slot holds
    when the step applies, which ``apply_rewrite`` builds and checks."""

    index: int
    machine: MooreMachine
    state_map: Optional[Mapping] = None


class RewireStep(Record, eq=False):
    """Precompose the wiring with an endomorphism of one slot's box."""

    index: int
    endo: Wiring

    def __post_init__(self):
        if len(self.endo.inner) != 1 or len(self.endo.outer) != 1:
            raise AttackError("a rewire endomorphism wires one box to itself")
        if self.endo.inner != self.endo.outer:
            raise AttackError(
                "a rewire endomorphism must have equal inner and outer boxes")


class AttackScript(Record):
    """An ordered list of rewrite and rewire steps."""

    steps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for s in self.steps:
            if not isinstance(s, (RewriteStep, RewireStep)):
                raise AttackError(f"not an attack step: {s!r}")


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def check_step(sys: CompositeSystem, step) -> None:
    """Raise AttackError unless ``step``'s slot is one of the system's and
    its endomorphism, or its replacement without a state map, is on that
    slot's box; a state map's morphism checks the box itself."""
    index = step.index
    if not 0 <= index < len(sys.components):
        raise AttackError(
            f"no component {index}; system has {len(sys.components)}")
    slot = sys.wiring.inner[index]
    if isinstance(step, RewireStep):
        if step.endo.inner[0] != slot:
            raise AttackError(
                f"endomorphism does not fit slot {index}: "
                f"{wi._box_mismatch(step.endo.inner[0], slot)}")
    elif step.state_map is None and step.machine.box != slot:
        raise AttackError(
            f"replacement does not fit slot {index}: "
            f"{wi._box_mismatch(step.machine.box, slot)}")


def apply_rewrite(sys: CompositeSystem, step: RewriteStep) -> CompositeSystem:
    """Swap one component machine, preserving the slot's box.

    The returned system keeps ``sys``'s wiring object, and with it the
    routing compiled for ``sys``'s composite.  A state map is built into
    the morphism from the current component to the replacement, which
    raises its first violation as a MachineError.  No composite is built:
    the morphism lifted to the two systems' composites is the step's
    ``LogEntry.witness``, computed when read.
    """
    check_step(sys, step)
    if step.state_map is not None:
        MachineHom(sys.components[step.index], step.machine, step.state_map)
    components = list(sys.components)
    components[step.index] = step.machine
    return CompositeSystem._built(sys.wiring, tuple(components))


def apply_rewire(sys: CompositeSystem, step: RewireStep) -> CompositeSystem:
    """Reroute one slot by precomposing with an endomorphism wiring.

    The new wiring is the old one composed with the identity on every
    slot except ``index``, where the endomorphism sits, as
    ``wiring.precompose_slot`` computes it.  Components are the same
    objects, untouched.
    """
    check_step(sys, step)
    rewired = wi.precompose_slot(sys.wiring, step.index, step.endo)
    return CompositeSystem._built(rewired, sys.components)


class LogEntry(Record):
    """One applied step: its position, the step, and the systems before
    and after it.  The rest is computed when read, so a script that reads
    none of it renders no text, hashes nothing and builds no composite;
    the system's wiring keeps its fingerprint, and each machine its
    canonical text."""

    position: int
    step: RewriteStep | RewireStep
    before: CompositeSystem
    system: CompositeSystem

    @property
    def kind(self) -> str:
        return type(self.step).__name__

    @property
    def detail(self) -> str:
        step = self.step
        if isinstance(step, RewireStep):
            return f"rewire component {step.index}"
        mode = "replace" if step.state_map is None else "morphism"
        return f"rewrite[{mode}] component {step.index}"

    @property
    def wiring_fp(self) -> str:
        from . import fingerprints
        return fingerprints.fingerprint_wiring(self.system.wiring)

    @property
    def components_fp(self) -> str:
        from . import fingerprints
        return fingerprints.fingerprint_components(self.system.components)

    @property
    def witness(self) -> Optional[MachineHom]:
        """A morphism rewrite's morphism out of ``before``'s component,
        checked when applied, with identities on the other slots, lifted
        along the wiring by ``moore.lift_hom`` between the composites
        before and after it (kept on the systems), or None.  Its state map
        is computed on lookup, so on a product over the limit it costs the
        reachable parts alone."""
        step = self.step
        if isinstance(step, RewireStep) or step.state_map is None:
            return None
        homs = [moore.identity_hom(m) for m in self.before.components]
        homs[step.index] = MachineHom._built(
            self.before.components[step.index], step.machine, step.state_map)
        return lift_hom(homs, self.before.composite(), self.system.composite())


class ScriptResult(Record):
    """The attacked system and a log entry per step."""

    system: CompositeSystem
    log: tuple[LogEntry, ...]

    @property
    def witnesses(self) -> tuple[Optional[MachineHom], ...]:
        """Each step's ``LogEntry.witness``."""
        return tuple(entry.witness for entry in self.log)


def apply_script(sys: CompositeSystem, script: AttackScript) -> ScriptResult:
    """Fold a script over a system left to right through ``apply_rewrite``
    and ``apply_rewire``, logging every step with the systems before and
    after it.

    The first step that does not apply aborts with an AttackError whose
    message names its position, ``step N: ...``, whose ``log`` attribute
    holds the entries for the steps already applied, and whose cause is
    the step's own error: an AttackError, or a state map's MachineError.
    """
    log: list[LogEntry] = []
    current = sys
    for pos, step in enumerate(script.steps):
        apply = apply_rewrite if isinstance(step, RewriteStep) else apply_rewire
        try:
            after = apply(current, step)
        except (AttackError, MachineError) as e:
            raise AttackError(f"step {pos}: {e}", tuple(log)) from e
        log.append(LogEntry(pos, step, current, after))
        current = after
    return ScriptResult(current, tuple(log))


def transport_script(script: AttackScript,
                     correspondence: "dict[int, Sequence[int]] | dict") -> AttackScript:
    """Carry a script across a component correspondence.

    ``correspondence`` maps source slot indices to lists of target slot
    indices; a step at slot i becomes one identical step per mapped slot,
    in order.  Slots merge-mapped to several targets get the same payload
    at each, which is how an attack described on a coarse view lands on a
    finer real system.
    """
    steps = []
    for step in script.steps:
        index = step.index
        if index not in correspondence:
            raise AttackError(f"correspondence does not cover slot {index}")
        for target in correspondence[index]:
            if isinstance(step, RewriteStep):
                steps.append(RewriteStep(target, step.machine, step.state_map))
            else:
                steps.append(RewireStep(target, step.endo))
    return AttackScript(tuple(steps))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class DiffReport(Record):
    """How two systems differ behaviorally, if at all."""

    equivalent: bool
    witness: Optional[tuple]
    depth: int
    tests: tuple[tuple[str, bool], ...] = ()


def attack_diff(baseline: CompositeSystem, attacked: CompositeSystem,
                depth: int, battery: Sequence[probes.Test] = ()) -> DiffReport:
    """Compare composite behavior before and after an attack.

    Reports trace equivalence to the given depth with a shortest
    distinguishing word (``probes.separating_word``), plus agreement for
    each test of any battery supplied.  The search's result, and whether
    it closed, decide a trace test, and an output image it proves equal,
    by ``probes.search_verdict``, with no outcome built; every other test
    is run on both composites and compared.  So a trace test the search
    decides gets its verdict even where its quotient would be over the
    limit, and a search that closed decides them all.
    """
    before = baseline.composite()
    after = attacked.composite()
    word, closed = probes.separating_word(before, after, depth)
    results = []
    for t in battery:
        agree = probes.search_verdict(t, word, depth, closed)
        if agree is None:
            agree = probes.compare_outcomes(
                t, probes.run_test(t, before), probes.run_test(t, after))
        results.append((t.name, agree))
    return DiffReport(word is None, word, depth, tuple(results))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class ScenarioScript(Record):
    """A named attack script aimed at one of the scenario's systems, and
    its ``apply_script`` result: the loader applies each script once."""

    name: str
    system: str
    script: AttackScript
    result: ScriptResult


class Scenario(Record, eq=False):
    """Systems, their correspondence, and the probing setup around them.

    ``knowledge`` is a function of no arguments that builds the knowledge
    base; ``kb`` calls it on its first read and keeps the result, so the
    composites of entries given as systems are built only for a caller
    that reads it.
    """

    name: str
    systems: Mapping[str, CompositeSystem]
    real: str
    attacker_view: str
    correspondence: Mapping[int, tuple[int, ...]]
    knowledge: Callable[[], probes.KnowledgeBase]
    battery: tuple[probes.Test, ...]
    scripts: tuple[ScenarioScript, ...]

    def __post_init__(self):
        object.__setattr__(self, "systems", dict(self.systems))
        object.__setattr__(
            self, "correspondence",
            {k: tuple(v) for k, v in dict(self.correspondence).items()})
        for key in (self.real, self.attacker_view):
            if key not in self.systems:
                raise AttackError(f"scenario has no system {key!r}")

    @property
    def kb(self) -> probes.KnowledgeBase:
        return _kept(self, "_kb", lambda sc: sc.knowledge())

    def system(self, name: str) -> CompositeSystem:
        try:
            return self.systems[name]
        except KeyError:
            raise AttackError(f"scenario has no system {name!r}") from None

    def script(self, name: str) -> ScenarioScript:
        for s in self.scripts:
            if s.name == name:
                return s
        raise AttackError(f"scenario has no script {name!r}")


def __getattr__(name: str):
    # ``attacks.fingerprint_wiring`` and ``attacks.fingerprint_components``
    # name the functions ``LogEntry`` calls, loaded on first use
    if name in ("fingerprint_wiring", "fingerprint_components"):
        from . import fingerprints
        return getattr(fingerprints, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
