"""Rewrite and rewire steps, script application, transport, and diffing."""

import io
import pathlib
import random
import threading
from sys import getswitchinterval, setswitchinterval

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_machine, random_network, random_stack,
                    random_wiring, relabelling)
from wirebox import attacks, fingerprints
from wirebox.attacks import (AttackError, AttackScript, CompositeSystem,
                             DiffReport, RewireStep, RewriteStep,
                             apply_rewire, apply_rewrite, apply_script,
                             attack_diff, transport_script)
from wirebox.cli import dispatch
from wirebox.fileformat import load
from wirebox.fingerprints import (_digest, fingerprint_components,
                                  fingerprint_wiring, machine_text,
                                  wiring_text)
from wirebox.moore import (MachineError, MachineHom, MooreMachine,
                           apply_algebra, compose_homs, hom_violations, run)
from wirebox.oracle import find_distinguishing_word
from wirebox.probes import ProbeError, StateSet, Test, TraceSet
from wirebox.wiring import (Box, InnerOut, OuterIn, Port, Table, Wiring,
                            compose, identity_wiring, tensor)

CELL = Box("cell", (Port("a", BIT),), (Port("q", BIT),))


def delay(init: str = "0") -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, init, update, {s: (s,) for s in BIT})


def history() -> MooreMachine:
    states = tuple(a + b for a in BIT for b in BIT)
    update = {(s, (a,)): s[1] + a for s in states for a in BIT}
    return MooreMachine(CELL, states, "00", update,
                        {s: (s[1],) for s in states})


def collapse() -> MachineHom:
    return MachineHom(history(), delay(), {s: s[1] for s in history().states})


def renamed_delay() -> MooreMachine:
    label = {"0": "lo", "1": "hi"}
    update = {(s, (a,)): label[a] for s in label.values() for a in BIT}
    return MooreMachine(CELL, ("lo", "hi"), "lo", update,
                        {"lo": ("0",), "hi": ("1",)})


def rename_hom() -> MachineHom:
    return MachineHom(delay(), renamed_delay(), {"0": "lo", "1": "hi"})


def hom_step(k: int, h: MachineHom) -> RewriteStep:
    """The rewrite of slot ``k`` along ``h``, as a file writes it."""
    return RewriteStep(k, h.target, h.state_map)


def chain() -> Wiring:
    outer = Box("two", CELL.in_ports, CELL.out_ports)
    return Wiring((CELL, CELL), (outer,),
                  {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(1, "q")})


def not_endo() -> Wiring:
    flip = Table((OuterIn(0, "a"),), ((("0",), "1"), (("1",), "0")))
    return Wiring((CELL,), (CELL,), {(0, "a"): flip},
                  {(0, "q"): InnerOut(0, "q")})


def single() -> CompositeSystem:
    return CompositeSystem(identity_wiring(CELL), (delay(),))


# a box named like CELL that differs in an input alphabet, and a machine on it
WIDE = Box("cell", (Port("a", ("0", "1", "2")),), CELL.out_ports)
WIDE_DIFFERS = ("input port 'a' on box 'cell': alphabet ['0', '1', '2'] vs "
                "['0', '1']")


def wide_delay() -> MooreMachine:
    update = {(s, (a,)): s for s in BIT for a in ("0", "1", "2")}
    return MooreMachine(WIDE, BIT, "0", update, {s: (s,) for s in BIT})


def pair() -> CompositeSystem:
    return CompositeSystem(chain(), (delay(), delay()))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_rewrite_carries_exactly_one_payload():
    # the replacement machine; a state map only says how states move
    with pytest.raises(TypeError):
        RewriteStep(0)


def test_rewire_endo_must_wire_one_box_to_itself():
    with pytest.raises(AttackError):
        RewireStep(0, tensor((identity_wiring(CELL), identity_wiring(CELL))))
    other = Box("other", CELL.in_ports, CELL.out_ports)
    relabel = Wiring((CELL,), (other,), {(0, "a"): OuterIn(0, "a")},
                     {(0, "q"): InnerOut(0, "q")})
    with pytest.raises(AttackError, match="equal inner and outer"):
        RewireStep(0, relabel)


def test_system_checks_component_count_and_boxes():
    # the checks apply_algebra makes, with its messages
    with pytest.raises(MachineError, match="inner boxes but"):
        CompositeSystem(chain(), (delay(),))
    other = Box("other", CELL.in_ports, CELL.out_ports)
    wrong = MooreMachine(other, BIT, "0", delay().update, delay().readout)
    with pytest.raises(MachineError, match="does not fit wiring slot"):
        CompositeSystem(identity_wiring(CELL), (wrong,))
    two_out = tensor((identity_wiring(CELL), identity_wiring(CELL)))
    with pytest.raises(MachineError, match="single box"):
        CompositeSystem(two_out, (delay(), delay()))


def test_composite_is_the_wiring_action():
    sys = pair()
    assert sys.composite() == apply_algebra(chain(), (delay(), delay()))
    assert sys.box.name == "two"


def test_a_system_builds_its_composite_once():
    sys = pair()
    assert sys.composite() is sys.composite()
    # the kept composite is no field: equality and repr see none
    assert sys == pair() and repr(sys) == repr(pair())


def test_threads_racing_for_kept_values_all_get_the_one_stored():
    # a kept value is stored once, first come, and every thread that asks
    # for it, the ones that computed it too, reads that one object
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for attempt in range(50):
            f, _, machines = random_stack(random.Random(attempt))
            system = CompositeSystem(f, machines)
            got = []
            start = threading.Barrier(6)

            def race():
                start.wait(timeout=60)
                got.append((system.composite(), fingerprint_wiring(f),
                            fingerprint_components(machines)))

            threads = [threading.Thread(target=race) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(got) == 6
            composite, wiring_fp, components_fp = got[0]
            assert all(c is composite and w is wiring_fp
                       and p == components_fp for c, w, p in got)
    finally:
        setswitchinterval(interval)


def test_script_rejects_foreign_steps():
    with pytest.raises(AttackError, match="not an attack step"):
        AttackScript((42,))


# ---------------------------------------------------------------------------
# rewrites
# ---------------------------------------------------------------------------

def test_replace_swaps_only_the_named_slot():
    sys = pair()
    step = RewriteStep(1, machine=delay("1"))
    result = apply_rewrite(sys, step)
    assert type(result) is CompositeSystem
    assert apply_script(sys, AttackScript((step,))).witnesses == (None,)
    assert result.components[0] is sys.components[0]
    assert result.components[1] == delay("1")
    assert result.wiring is sys.wiring


def test_a_machine_on_a_namesake_box_is_refused_where_it_differs():
    for build in (CompositeSystem, apply_algebra):
        with pytest.raises(MachineError) as exc:
            build(identity_wiring(CELL), (wide_delay(),))
        assert str(exc.value) == \
            f"machine 0 does not fit wiring slot 0: {WIDE_DIFFERS}"


def test_replace_names_where_a_namesake_box_differs():
    with pytest.raises(AttackError) as exc:
        apply_rewrite(single(), RewriteStep(0, machine=wide_delay()))
    assert str(exc.value) == f"replacement does not fit slot 0: {WIDE_DIFFERS}"


def test_replace_checks_the_slot_box():
    other = Box("other", CELL.in_ports, CELL.out_ports)
    foreign = MooreMachine(other, BIT, "0", delay().update, delay().readout)
    with pytest.raises(AttackError, match="does not fit slot"):
        apply_rewrite(single(), RewriteStep(0, machine=foreign))


def test_replace_rejects_invalid_machines():
    # a machine lacking an update row is refused when it is built, so no
    # rewrite carries one
    broken_update = dict(delay().update)
    del broken_update[("0", ("1",))]
    with pytest.raises(MachineError,
                       match=r"^update missing for state 0 on input \('1',\)$"):
        MooreMachine(CELL, BIT, "0", broken_update, delay().readout)


def test_rewrite_index_must_exist():
    with pytest.raises(AttackError, match="no component 5"):
        apply_rewrite(single(), RewriteStep(5, machine=delay()))


def test_hom_mode_requires_the_current_component_as_source():
    # collapse's map is out of history; slot 0 holds delay
    with pytest.raises(MachineError, match="^state map misses 0$"):
        apply_rewrite(single(), hom_step(0, collapse()))


def test_hom_mode_rejects_broken_morphisms():
    # a broken morphism is refused when it is built, so no rewrite carries one
    with pytest.raises(MachineError, match="^initial state is not preserved$"):
        MachineHom(delay(), delay(), {"0": "1", "1": "0"})


def test_hom_mode_lifts_the_witness_to_the_composites():
    sys = CompositeSystem(chain(), (history(), delay()))
    result = apply_script(sys, AttackScript((hom_step(0, collapse()),)))
    (witness,) = result.witnesses
    assert witness is not None
    assert hom_violations(witness) == []
    # the composites the witness spans are the systems' own, built once
    assert witness.source is sys.composite()
    assert witness.target is result.system.composite()
    # the slot collapsed from four states to two
    assert len(witness.source.states) == 8
    assert len(witness.target.states) == 4


def test_same_slot_homs_compose():
    sys = CompositeSystem(identity_wiring(CELL), (history(),))
    one_by_one = apply_script(sys, AttackScript(
        (hom_step(0, collapse()), hom_step(0, rename_hom()))))
    fused = compose_homs(rename_hom(), collapse())
    at_once = apply_script(sys, AttackScript((hom_step(0, fused),)))
    assert one_by_one.system == at_once.system
    first, second = one_by_one.witnesses
    assert compose_homs(second, first).state_map == \
        at_once.witnesses[0].state_map


# ---------------------------------------------------------------------------
# rewires
# ---------------------------------------------------------------------------

def test_rewire_leaves_components_untouched():
    sys = pair()
    rewired = apply_rewire(sys, RewireStep(0, not_endo()))
    assert rewired.components[0] is sys.components[0]
    assert rewired.components[1] is sys.components[1]
    assert rewired.wiring != sys.wiring


def test_rewire_negates_the_routed_input():
    rewired = apply_rewire(single(), RewireStep(0, not_endo()))
    outs = run(rewired.composite(), (("1",), ("1",), ("0",)))
    assert outs == [("0",), ("0",), ("0",)]  # delay of the negated word


def test_rewire_names_where_a_namesake_box_differs():
    with pytest.raises(AttackError) as exc:
        apply_rewire(single(), RewireStep(0, identity_wiring(WIDE)))
    assert str(exc.value) == \
        f"endomorphism does not fit slot 0: {WIDE_DIFFERS}"


def test_rewire_checks_the_slot_box():
    other = Box("other", CELL.in_ports, CELL.out_ports)
    endo = Wiring((other,), (other,), {(0, "a"): OuterIn(0, "a")},
                  {(0, "q"): InnerOut(0, "q")})
    with pytest.raises(AttackError, match="endomorphism does not fit slot"):
        apply_rewire(single(), RewireStep(0, endo))


def test_double_negation_restores_the_wiring():
    sys = pair()
    once = apply_rewire(sys, RewireStep(0, not_endo()))
    twice = apply_rewire(once, RewireStep(0, not_endo()))
    assert twice.wiring == sys.wiring
    assert find_distinguishing_word(
        sys.composite(), twice.composite(), 6) is None


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

def test_script_logs_every_step_with_fingerprints():
    sys = pair()
    script = AttackScript((RewriteStep(0, machine=delay("1")),
                           RewireStep(1, not_endo())))
    result = apply_script(sys, script)
    assert result.witnesses == (None, None)
    assert [e.position for e in result.log] == [0, 1]
    assert [e.kind for e in result.log] == ["RewriteStep", "RewireStep"]
    assert result.log[0].detail == "rewrite[replace] component 0"
    assert result.log[1].detail == "rewire component 1"

    # fingerprints match a replay of the same steps
    mid = apply_rewrite(sys, script.steps[0])
    assert result.log[0].wiring_fp == fingerprint_wiring(mid.wiring)
    assert result.log[0].components_fp == fingerprint_components(mid.components)
    end = apply_rewire(mid, script.steps[1])
    assert result.log[1].wiring_fp == fingerprint_wiring(end.wiring)
    assert result.log[1].components_fp == fingerprint_components(end.components)
    assert result.system == end


def random_script(rng: random.Random, w: Wiring, machines) -> AttackScript:
    """One to four steps on ``w``'s slots: plain and morphism rewrites,
    each morphism out of its slot's component at that point, and rewires."""
    components = list(machines)
    steps = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(len(components))
        box = w.inner[k]
        roll = rng.random()
        if roll < 1 / 3:
            components[k] = random_machine(rng, box)
            steps.append(RewriteStep(k, machine=components[k]))
        elif roll < 2 / 3:
            copy, name = relabelling(rng, components[k])
            steps.append(hom_step(k, MachineHom(components[k], copy, name)))
            components[k] = copy
        else:
            steps.append(RewireStep(k, random_wiring(rng, (box,), box)))
    return AttackScript(tuple(steps))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_kept_fingerprints_agree_with_fresh_copies(seed):
    # fingerprints, routings and composites are kept on the objects a
    # script meets; a second run reads them, and copies made through the
    # constructors carry none and compute each afresh
    rng = random.Random(seed)
    w, machines = random_network(rng)
    system = CompositeSystem(w, machines)
    script = random_script(rng, w, machines)
    first = apply_script(system, script)
    second = apply_script(system, script)
    assert second.log == first.log
    assert [(e.wiring_fp, e.components_fp) for e in second.log] == \
        [(e.wiring_fp, e.components_fp) for e in first.log]
    assert second.system == first.system
    assert second.witnesses == first.witnesses
    current = system
    for step, entry in zip(script.steps, first.log):
        current = (apply_rewrite if isinstance(step, RewriteStep)
                   else apply_rewire)(current, step)
        n = current.wiring
        copy = Wiring(n.inner, n.outer, n.in_map, n.out_map)
        machines = [MooreMachine(m.box, m.states, m.init, m.update, m.readout)
                    for m in current.components]
        assert entry.wiring_fp == _digest(wiring_text(copy))
        assert entry.components_fp == _digest(
            "\n--\n".join(machine_text(m) for m in machines))
        # every wiring a step leaves is a normal form: its copy through
        # the normalizing constructor is equal, key order included
        assert copy == n
        assert list(copy.in_map) == list(n.in_map)
        assert list(copy.out_map) == list(n.out_map)
    assert first.system == current


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_a_step_builds_its_system_without_fitting_the_machines_again(seed):
    # check_step checks the slot a step changes, and the boundary stays
    # the same, so neither step calls _machines_fit; every system it
    # builds is the one the checking constructor builds
    rng = random.Random(seed)
    w, machines = random_network(rng)
    system = CompositeSystem(w, machines)
    script = random_script(rng, w, machines)
    fitted = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attacks, "_machines_fit", lambda *a: fitted.append(a))
        result = apply_script(system, script)
    assert fitted == []
    for entry in result.log:
        built = entry.system
        assert type(built.components) is tuple
        assert built == CompositeSystem(built.wiring, built.components)


def test_a_misfit_step_is_refused_before_any_system_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("a step fitted its machines again")
    system = single()
    monkeypatch.setattr(attacks, "_machines_fit", never)
    with pytest.raises(AttackError) as exc:
        apply_rewrite(system, RewriteStep(0, machine=wide_delay()))
    assert str(exc.value) == f"replacement does not fit slot 0: {WIDE_DIFFERS}"
    with pytest.raises(AttackError) as exc:
        apply_rewire(system, RewireStep(0, identity_wiring(WIDE)))
    assert str(exc.value) == \
        f"endomorphism does not fit slot 0: {WIDE_DIFFERS}"
    # a state map's morphism checks the replacement's box itself
    with pytest.raises(MachineError) as exc:
        apply_rewrite(system, RewriteStep(0, wide_delay(), {s: s for s in BIT}))
    assert str(exc.value) == (
        "source and target inhabit different boxes: input port 'a' on box "
        "'cell': alphabet ['0', '1'] vs ['0', '1', '2']")
    with pytest.raises(AttackError) as exc:
        apply_rewire(system, RewireStep(1, not_endo()))
    assert str(exc.value) == "no component 1; system has 1"


# fingerprints of the scenario's wirings; a change of the normal form's
# source order or text shows here first
SCENARIO_FINGERPRINTS = {
    "frame": "7c8931ceaa7f", "gps-swap": "2325ffe15971",
    "id-ctrl": "4bb31c8da5fa", "id-dyn": "0c6679bb8197",
    "real-chain": "55e9ad97b724", "real-stack": "edda6c7fdb06",
    "sensor-real": "158e34fbea1d", "sensor-view": "08b4cd020837",
    "view-chain": "68e74d2f68b1", "view-stack": "736de904b9b6",
}


def test_scenario_wiring_fingerprints_are_pinned():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "fixtures" / "uav" / "scenario.yaml")
    wirings = load(path).wirings
    assert {n: fingerprint_wiring(w) for n, w in wirings.items()} == \
        SCENARIO_FINGERPRINTS


def test_table_source_order_is_pinned():
    # the scenario's normal forms hold no tables; these netgen composites
    # hold tables of two or more sources
    for seed, fp in ((0, "67969f6144cf"), (3, "6dc813e0b481")):
        f, g, _ = random_stack(random.Random(seed))
        assert fingerprint_wiring(compose(g, f)) == fp


def test_script_hom_step_is_logged_as_morphism_mode():
    sys = CompositeSystem(identity_wiring(CELL), (history(),))
    result = apply_script(sys, AttackScript((hom_step(0, collapse()),)))
    assert result.log[0].detail == "rewrite[morphism] component 0"
    assert result.witnesses[0] is not None


def test_aborted_script_reports_the_partial_log():
    script = AttackScript((RewireStep(0, not_endo()),
                           RewriteStep(9, machine=delay())))
    with pytest.raises(AttackError, match="step 1") as exc:
        apply_script(pair(), script)
    assert len(exc.value.log) == 1
    assert exc.value.log[0].detail == "rewire component 0"


def test_a_script_hashes_nothing_until_its_log_is_read(monkeypatch):
    # the fold logs the system each step leaves, and an entry fingerprints
    # it when read: diff, which reads only the last system, hashes nothing
    digested = []
    monkeypatch.setattr(fingerprints, "_digest",
                        lambda text: digested.append(text) or _digest(text))
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "fixtures" / "uav" / "scenario.yaml")
    scenario = load(path).scenario
    results = [apply_script(scenario.system(e.system), e.script)
               for e in scenario.scripts]
    script = AttackScript((RewireStep(0, not_endo()),
                           RewriteStep(9, machine=delay())))
    with pytest.raises(AttackError) as aborted:
        apply_script(pair(), script)
    assert str(aborted.value) == "step 1: no component 9; system has 2"
    assert digested == []
    for result in results:
        assert result.log[-1].system is result.system
        for entry in result.log:
            assert entry.wiring_fp == fingerprint_wiring(entry.system.wiring)
            assert entry.components_fp == \
                fingerprint_components(entry.system.components)
    assert digested
    entry, = aborted.value.log
    assert entry.system == apply_rewire(pair(), script.steps[0])


def test_a_morphism_rewrite_builds_no_composite_until_its_witness_is_read(
        monkeypatch):
    # a step maps a system to a system; the witness spans the composites
    # before and after it, which reading it builds and keeps, so attack,
    # which reads none, builds none, nor the knowledge base's system rows
    built = []
    monkeypatch.setattr(attacks, "apply_algebra", lambda w, machines:
                        built.append(w) or apply_algebra(w, machines))
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "fixtures" / "uav" / "scenario.yaml")
    scenario = load(path).scenario
    entry = scenario.script("gps-minimize")
    baseline = scenario.system(entry.system)
    result = apply_script(baseline, entry.script)
    assert built == []
    (witness,) = result.witnesses
    assert len(built) == 2
    assert witness.source is baseline.composite()
    assert witness.target is result.system.composite()
    assert hom_violations(witness) == []
    assert result.witnesses[0].source is witness.source and len(built) == 2
    built.clear()
    code = dispatch(["attack", "--scenario", str(path), "--script",
                     "gps-minimize"], io.StringIO(), io.StringIO())
    assert code == 0 and built == []


def test_empty_script_is_the_identity():
    sys = pair()
    result = apply_script(sys, AttackScript())
    assert result.system is sys
    assert result.log == ()


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_fans_steps_out_along_the_correspondence():
    step = RewriteStep(0, machine=delay("1"))
    moved = transport_script(AttackScript((step,)), {0: (1, 2)})
    assert [s.index for s in moved.steps] == [1, 2]
    assert all(s.machine is step.machine for s in moved.steps)


def test_transport_keeps_step_order():
    script = AttackScript((RewriteStep(1, machine=delay("1")),
                           RewireStep(0, not_endo())))
    moved = transport_script(script, {0: (0,), 1: (2,)})
    assert isinstance(moved.steps[0], RewriteStep)
    assert moved.steps[0].index == 2
    assert isinstance(moved.steps[1], RewireStep)
    assert moved.steps[1].index == 0


def test_transport_requires_coverage():
    with pytest.raises(AttackError, match="slot 3"):
        transport_script(AttackScript((RewriteStep(3, machine=delay()),)),
                         {0: (0,)})


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

def test_diff_of_a_system_with_itself_is_equivalent():
    report = attack_diff(pair(), pair(), 6)
    assert report == DiffReport(True, None, 6, ())


def test_diff_finds_the_shortest_witness():
    attacked = apply_rewire(single(), RewireStep(0, not_endo()))
    report = attack_diff(single(), attacked, 6)
    assert not report.equivalent
    # one step to absorb the input, one to read it back out
    assert report.witness == (("0",), ("0",))
    before = single().composite()
    after = attacked.composite()
    assert run(before, report.witness) != run(after, report.witness)


def test_diff_runs_the_battery():
    battery = (Test("words-2", TraceSet(2)),
               Test("states", StateSet()))
    attacked = apply_rewrite(single(), RewriteStep(0, machine=delay("1")))
    report = attack_diff(single(), attacked, 4, battery)
    assert dict(report.tests) == {"words-2": False, "states": True}


def test_diff_requires_matching_boundaries():
    # one refusal, from the pair search, naming where the boxes first differ
    with pytest.raises(ProbeError, match=r"^machines on different boxes: "
                                         r"box 'cell' vs 'two'$"):
        attack_diff(single(), pair(), 4)
    wide = Box("cell", (Port("a", ("0", "1", "2")),), CELL.out_ports)
    update = {(s, (a,)): min(a, "1") for s in BIT for a in ("0", "1", "2")}
    other = MooreMachine(wide, BIT, "0", update, {s: (s,) for s in BIT})
    with pytest.raises(ProbeError, match=r"^machines on different boxes: input "
                                         r"port 'a' on box 'cell': alphabet"):
        attack_diff(single(), CompositeSystem(identity_wiring(wide), (other,)), 4)
