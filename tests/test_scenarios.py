"""The bundled airframe scenario: view vs real, attacks, and contexts."""

import pathlib

import pytest

from uav import (combo_script, ctrl_machine, dyn_machine, env_spoof_machine,
                 gcs_spoof_machine, gps_swap_rewiring, gps_symmetric_machine,
                 imu_machine, proc_machine, relabel_machine, wrap_environment,
                 wrap_gcs)
from wirebox.attacks import (AttackError, AttackScript, CompositeSystem,
                             apply_script, attack_diff, transport_script)
from wirebox.fileformat import load
from wirebox.moore import hom_violations, run
from wirebox.oracle import bisimilar, find_distinguishing_word
from wirebox.probes import (AMBIGUOUS, EXACT, UNKNOWN, MachineOracle,
                            yoneda_filter)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ZZ = ("0", "0")


@pytest.fixture(scope="module")
def scenario():
    return load(FIXTURES / "uav" / "scenario.yaml").scenario


# ---------------------------------------------------------------------------
# the two decompositions
# ---------------------------------------------------------------------------

def test_view_has_five_components_real_has_six(scenario):
    assert len(scenario.system("attacker-view").components) == 5
    assert len(scenario.system("real").components) == 6


def test_view_and_real_agree_behaviorally(scenario):
    view = scenario.system("attacker-view").composite()
    real = scenario.system("real").composite()
    assert find_distinguishing_word(view, real, 6) is None
    assert bisimilar(view, real)


def test_view_and_real_differ_in_state_count(scenario):
    # behavioral agreement, structural divergence: that gap is the point
    view = scenario.system("attacker-view").composite()
    real = scenario.system("real").composite()
    assert len(view.states) == 32
    assert len(real.states) == 64


def test_correspondence_covers_every_view_slot(scenario):
    assert sorted(scenario.correspondence) == [0, 1, 2, 3, 4]
    landed = [i for slots in scenario.correspondence.values() for i in slots]
    assert sorted(landed) == [0, 1, 2, 3, 4, 5]
    assert scenario.correspondence[0] == (0, 1)


def test_scenario_lookup_errors_name_the_missing_thing(scenario):
    with pytest.raises(AttackError, match="nope"):
        scenario.system("nope")
    with pytest.raises(AttackError, match="nope"):
        scenario.script("nope")


# ---------------------------------------------------------------------------
# single attacks on the view
# ---------------------------------------------------------------------------

def run_script(scenario, name):
    entry = scenario.script(name)
    base = scenario.system(entry.system)
    return base, apply_script(base, entry.script).system


def test_firmware_rewrite_shows_after_four_idle_steps(scenario):
    base, attacked = run_script(scenario, "gps-firmware")
    word = find_distinguishing_word(base.composite(), attacked.composite(), 8)
    assert word == (ZZ, ZZ, ZZ, ZZ)
    assert run(base.composite(), word) != run(attacked.composite(), word)


def test_feed_swap_needs_an_asymmetric_input(scenario):
    base, attacked = run_script(scenario, "gps-swap")
    word = find_distinguishing_word(base.composite(), attacked.composite(), 8)
    assert word == (("0", "1"), ZZ, ZZ, ZZ, ZZ)


def test_combo_is_visible_as_early_as_the_firmware_alone(scenario):
    base, attacked = run_script(scenario, "combo")
    word = find_distinguishing_word(base.composite(), attacked.composite(), 8)
    assert word == (ZZ, ZZ, ZZ, ZZ)


def test_double_swap_is_a_perfect_cover(scenario):
    base, attacked = run_script(scenario, "double-swap")
    assert attacked.wiring == base.wiring
    assert find_distinguishing_word(
        base.composite(), attacked.composite(), 6) is None


def test_swap_cannot_touch_a_symmetric_receiver(scenario):
    view = scenario.system("attacker-view")
    sym = CompositeSystem(view.wiring, (
        imu_machine(), gps_symmetric_machine(), proc_machine(),
        ctrl_machine(), dyn_machine()))
    swapped = apply_script(sym, AttackScript((gps_swap_rewiring(),))).system
    assert find_distinguishing_word(
        sym.composite(), swapped.composite(), 6) is None


def test_minimize_script_carries_a_valid_witness(scenario):
    entry = scenario.script("gps-minimize")
    base = scenario.system(entry.system)
    result = apply_script(base, entry.script)
    witness = result.witnesses[0]
    assert witness is not None
    assert hom_violations(witness) == []
    assert witness.source == base.composite()
    assert witness.target == result.system.composite()
    assert len(witness.source.states) == 64
    assert len(witness.target.states) == 32


# ---------------------------------------------------------------------------
# transporting the combo from the view to the real system
# ---------------------------------------------------------------------------

def test_transported_combo_lands_on_the_real_receiver(scenario):
    moved = transport_script(combo_script(), scenario.correspondence)
    assert [s.index for s in moved.steps] == [2, 2]


def test_transported_combo_matches_the_view_prediction(scenario):
    moved = transport_script(combo_script(), scenario.correspondence)
    attacked_real = apply_script(scenario.system("real"), moved).system
    attacked_view = apply_script(scenario.system("attacker-view"),
                                 combo_script()).system
    assert find_distinguishing_word(
        attacked_real.composite(), attacked_view.composite(), 6) is None


def test_transported_combo_changes_the_real_system(scenario):
    moved = transport_script(combo_script(), scenario.correspondence)
    real = scenario.system("real")
    report = attack_diff(real, apply_script(real, moved).system, 6,
                         scenario.battery)
    assert not report.equivalent
    assert len(report.witness) == 4
    agree = dict(report.tests)
    assert agree["traces-6"] is False
    assert agree["state-count"] is True


# ---------------------------------------------------------------------------
# closing the system against contexts
# ---------------------------------------------------------------------------

def test_wrapping_preserves_equivalence(scenario):
    view, real = scenario.system("attacker-view"), scenario.system("real")
    for wrap in (wrap_environment, wrap_gcs):
        a, b = wrap(view), wrap(real)
        assert len(a.components) == len(view.components) + 1
        assert find_distinguishing_word(a.composite(), b.composite(), 6) is None


def test_environment_spoof_surfaces_in_five_steps(scenario):
    view = scenario.system("attacker-view")
    honest = wrap_environment(view)
    spoofed = wrap_environment(view, env_spoof_machine())
    word = find_distinguishing_word(honest.composite(), spoofed.composite(), 8)
    assert word == (("0",),) * 5


def test_ground_station_spoof_surfaces_in_three_steps(scenario):
    view = scenario.system("attacker-view")
    honest = wrap_gcs(view)
    spoofed = wrap_gcs(view, gcs_spoof_machine())
    word = find_distinguishing_word(honest.composite(), spoofed.composite(), 8)
    assert word == (ZZ, ZZ, ZZ)


def test_wrapping_rejects_foreign_boundaries(scenario):
    wrapped = wrap_environment(scenario.system("attacker-view"))
    with pytest.raises(AttackError, match="airframe"):
        wrap_environment(wrapped)
    with pytest.raises(AttackError, match="airframe"):
        wrap_gcs(wrapped)


# ---------------------------------------------------------------------------
# the knowledge base and learning against scenario targets
# ---------------------------------------------------------------------------

def test_kb_entries_are_pairwise_distinguishable(scenario):
    kb = scenario.kb
    battery = scenario.battery
    for i, (_, a) in enumerate(kb.entries):
        for _, b in kb.entries[i + 1:]:
            assert find_distinguishing_word(a, b, 6) is not None or \
                len(a.states) != len(b.states)


def test_learner_recovers_a_relabeled_view(scenario):
    target = relabel_machine(scenario.system("attacker-view").composite())
    result = yoneda_filter(scenario.kb, scenario.battery,
                           MachineOracle(target))
    assert result.classification == EXACT
    assert result.candidates == ("profile-stock",)


def test_real_composite_is_trace_equal_but_not_isomorphic(scenario):
    # 64 states vs 32: the cardinality test rejects every profile
    target = scenario.system("real").composite()
    result = yoneda_filter(scenario.kb, scenario.battery,
                           MachineOracle(target))
    assert result.classification == UNKNOWN


def test_weak_battery_cannot_separate_the_profiles(scenario):
    weak = tuple(t for t in scenario.battery if t.name == "point")
    target = relabel_machine(scenario.system("attacker-view").composite())
    result = yoneda_filter(scenario.kb, weak, MachineOracle(target))
    assert result.classification == AMBIGUOUS
    assert set(result.candidates) == set(scenario.kb.names)


def test_learner_spots_the_hacked_profile(scenario):
    entry = scenario.script("gps-firmware")
    attacked = apply_script(scenario.system(entry.system), entry.script).system
    target = relabel_machine(attacked.composite())
    result = yoneda_filter(scenario.kb, scenario.battery,
                           MachineOracle(target))
    assert result.classification == EXACT
    assert result.candidates == ("profile-hacked",)

