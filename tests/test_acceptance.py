"""Acceptance gate: eight checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print; without ``-s`` pytest shows them for failures.
The whole file is budgeted to finish in well under a minute.
"""

import pathlib
import random
import time

import pytest

from netgen import random_network, random_stack, random_word
from uav import (frame_wiring, relabel_machine, sensor_real_wiring,
                 sensor_view_wiring)
from wirebox.attacks import apply_script, transport_script
from wirebox.fileformat import load
from wirebox.fincat import yoneda_check
from wirebox.moore import apply_algebra, hom_violations, run
from wirebox.oracle import (bisimilar, eval_equal, find_distinguishing_word,
                            stagewise_simulate, trace_equivalent)
from wirebox.probes import AMBIGUOUS, EXACT, UNKNOWN, MachineOracle, Terminal, \
    Test, yoneda_filter
from wirebox.wiring import compose, identity_of, identity_wiring, tensor

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DEPTH = 6


@pytest.fixture(scope="module")
def sc():
    return load(FIXTURES / "uav" / "scenario.yaml").scenario


def report(num: int, label: str, ok: bool):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_algebra_functor_laws():
    # identity and composition laws of the machine algebra, 100 random
    # networks, fixed seed, traces to depth 6
    rng = random.Random(0)
    ok = True
    for _ in range(100):
        w, machines = random_network(rng)
        composite = apply_algebra(w, machines)
        lifted = apply_algebra(identity_wiring(composite.box), [composite])
        word = random_word(rng, composite.box, DEPTH)
        ok = ok and run(lifted, word) == run(composite, word)

        f, g, ms = random_stack(rng)
        at_once = apply_algebra(compose(g, f), ms)
        in_stages = apply_algebra(g, [apply_algebra(f, ms)])
        word = random_word(rng, at_once.box, DEPTH)
        ok = ok and run(at_once, word) == run(in_stages, word)
    report(1, "algebra functor laws, 100 networks", ok)


def test_criterion_2_wiring_category_laws():
    # associativity, identity, and interchange on the bundled wirings,
    # checked structurally and by exhaustive evaluation
    view, real, frame = sensor_view_wiring(), sensor_real_wiring(), frame_wiring()
    ok = True
    for stack in (view, real):
        pad = tensor([stack] + [identity_wiring(b) for b in frame.inner[1:]])
        h = identity_wiring(frame.outer[0])
        left = compose(h, compose(frame, pad))
        right = compose(compose(h, frame), pad)
        ok = ok and left == right and eval_equal(left, right)

    for w in (view, real, frame):
        ok = ok and compose(identity_of(w.outer), w) == w
        ok = ok and compose(w, identity_of(w.inner)) == w

    # interchange: tensoring then composing equals composing then tensoring
    f1, f2 = view, identity_of(frame.inner[1:])
    g1 = identity_of(view.outer)
    g2 = identity_of(frame.inner[1:])
    together = compose(tensor([g1, g2]), tensor([f1, f2]))
    apart = tensor([compose(g1, f1), compose(g2, f2)])
    ok = ok and together == apart and eval_equal(together, apart)
    report(2, "wiring category laws on fixtures", ok)


def test_criterion_3_yoneda_on_the_fixture_categories():
    # five categories, at least three functors each, every object checked;
    # the whole sweep must stay under ten seconds
    started = time.monotonic()
    ok = True
    cats = functors = 0
    for path in sorted((FIXTURES / "fincat").glob("*.yaml")):
        doc = load(path)
        cats += 1
        functors_here = 0
        for F in doc.functors.values():
            functors_here += 1
            for obj in doc.category.objects:
                witness = yoneda_check(doc.category, obj, F)
                ok = ok and witness.count == len(F.on_objects[obj])
        functors += functors_here
        ok = ok and functors_here >= 3
    elapsed = time.monotonic() - started
    ok = ok and cats >= 5 and elapsed < 10.0
    report(3, f"yoneda sweep, {cats} categories, {functors} functors, "
              f"{elapsed:.2f}s", ok)


def test_criterion_4_learning_corner_cases(sc):
    target = relabel_machine(sc.system("attacker-view").composite())
    exact = yoneda_filter(sc.kb, sc.battery, MachineOracle(target))
    ok = exact.classification == EXACT and \
        exact.candidates == ("profile-stock",)

    # trace-equal but structurally different: nothing survives the battery
    real = sc.system("real").composite()
    unknown = yoneda_filter(sc.kb, sc.battery, MachineOracle(real))
    ok = ok and unknown.classification == UNKNOWN

    weak = (Test("point", Terminal()),)
    ambiguous = yoneda_filter(sc.kb, weak, MachineOracle(target))
    ok = ok and ambiguous.classification == AMBIGUOUS and \
        len(ambiguous.candidates) == len(sc.kb.names)
    report(4, "learning: exact, unknown, ambiguous", ok)


def test_criterion_5_redundant_unit_is_invisible(sc):
    view = sc.system("attacker-view")
    real = sc.system("real")
    ok = len(real.components) == 6 and len(view.components) == 5
    ok = ok and trace_equivalent(view.composite(), real.composite(), DEPTH)
    ok = ok and bisimilar(view.composite(), real.composite())
    report(5, "two units behave as one", ok)


def test_criterion_6_combined_attack_and_its_cover(sc):
    view = sc.system("attacker-view")
    real = sc.system("real")
    combo = sc.script("combo").script

    attacked_view = apply_script(view, combo).system
    word = find_distinguishing_word(view.composite(),
                                    attacked_view.composite(), DEPTH)
    ok = word is not None and len(word) <= DEPTH

    moved = transport_script(combo, sc.correspondence)
    attacked_real = apply_script(real, moved).system
    ok = ok and find_distinguishing_word(
        attacked_real.composite(), attacked_view.composite(), DEPTH) is None

    cover = sc.script("double-swap")
    covered = apply_script(view, cover.script).system
    ok = ok and covered.wiring == view.wiring
    ok = ok and find_distinguishing_word(
        view.composite(), covered.composite(), DEPTH) is None
    report(6, "combined attack transports; double swap hides", ok)


def test_criterion_7_morphism_rewrite_certifies_itself(sc):
    entry = sc.script("gps-minimize")
    base = sc.system(entry.system)
    result = apply_script(base, entry.script)
    witness = result.witnesses[0]
    ok = witness is not None and hom_violations(witness) == []
    ok = ok and witness.source == base.composite()
    ok = ok and witness.target == result.system.composite()
    ok = ok and (len(witness.source.states),
                 len(witness.target.states)) == (64, 32)
    report(7, "lifted morphism certifies the rewrite", ok)


def test_criterion_8_stagewise_agrees_with_the_algebra(sc):
    ok = True
    for system in (sc.system("attacker-view"), sc.system("real")):
        word = (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")) + \
            (("0", "0"),) * 2
        ok = ok and stagewise_simulate(system.wiring, system.components,
                                       word) == \
            run(system.composite(), word)

    rng = random.Random(0)
    for _ in range(500):
        w, machines = random_network(rng)
        word = random_word(rng, w.outer[0], 4)
        ok = ok and stagewise_simulate(w, machines, word) == \
            run(apply_algebra(w, machines), word)
    report(8, "stagewise simulation equals the algebra", ok)
