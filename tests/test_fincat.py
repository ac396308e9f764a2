"""Finite categories, functor tables, and naturality enumeration."""

import itertools
import pathlib

import pytest

from wirebox.fileformat import load
from wirebox.fincat import (FinCategory, FinCatError, Morphism,
                            NatTransformation, SetFunctor, YonedaError,
                            enumerate_nat, hom_functor, is_natural,
                            representable_iso_check, validate_category,
                            validate_functor, yoneda_check)


def walking_iso() -> FinCategory:
    return FinCategory(
        "walking-iso", ("a", "b"),
        (Morphism("ida", "a", "a"), Morphism("idb", "b", "b"),
         Morphism("f", "a", "b"), Morphism("g", "b", "a")),
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("ida", "g"): "g", ("f", "ida"): "f",
         ("f", "g"): "idb", ("g", "idb"): "g", ("g", "f"): "ida",
         ("idb", "f"): "f", ("idb", "idb"): "idb"})


def chain3() -> FinCategory:
    return FinCategory(
        "chain3", ("p", "q", "r"),
        (Morphism("idp", "p", "p"), Morphism("idq", "q", "q"),
         Morphism("idr", "r", "r"), Morphism("f", "p", "q"),
         Morphism("g", "q", "r"), Morphism("h", "p", "r")),
        {"p": "idp", "q": "idq", "r": "idr"},
        {("idp", "idp"): "idp", ("idq", "idq"): "idq", ("idr", "idr"): "idr",
         ("f", "idp"): "f", ("idq", "f"): "f", ("g", "idq"): "g",
         ("idr", "g"): "g", ("h", "idp"): "h", ("idr", "h"): "h",
         ("g", "f"): "h"})


def cyc3() -> FinCategory:
    names = ["e", "r1", "r2"]
    comp = {(names[i], names[j]): names[(i + j) % 3]
            for i in range(3) for j in range(3)}
    return FinCategory("cyc3", ("s",),
                       tuple(Morphism(n, "s", "s") for n in names),
                       {"s": "e"}, comp)


def constant(cat: FinCategory) -> SetFunctor:
    return SetFunctor("const", cat,
                      {a: ("*",) for a in cat.objects},
                      {m.mid: {"*": "*"} for m in cat.morphisms})


def brute_nat(F: SetFunctor, G: SetFunctor):
    # filter every componentwise assignment by naturality
    objs = sorted(F.cat.objects)
    spaces = []
    for a in objs:
        dom, cod = sorted(F.at(a)), sorted(G.at(a))
        spaces.append([dict(zip(dom, pick))
                       for pick in itertools.product(cod, repeat=len(dom))])
    found = []
    for combo in itertools.product(*spaces):
        eta = NatTransformation(dict(zip(objs, combo)))
        if is_natural(F, G, eta):
            found.append(eta)
    found.sort(key=NatTransformation.encode)
    return found


def paired_iso_check(cat: FinCategory, a, b):
    # every forward transformation against every backward one: a pair
    # that composes to the identity at every object both ways
    Ha, Hb = hom_functor(cat, a), hom_functor(cat, b)
    backwards = enumerate_nat(Hb, Ha)
    for eta in enumerate_nat(Ha, Hb):
        for theta in backwards:
            if all(all(theta.at(c)[eta.at(c)[x]] == x for x in Ha.at(c)) and
                   all(eta.at(c)[theta.at(c)[y]] == y for y in Hb.at(c))
                   for c in cat.objects):
                return True, (eta.at(a)[cat.identity[a]],
                              theta.at(b)[cat.identity[b]])
    return False, None


ALL_CATS = (walking_iso(), chain3(), cyc3())
FIXTURE_CATS = tuple(
    load(p).category for p in sorted(
        (pathlib.Path(__file__).resolve().parent.parent / "fixtures"
         / "fincat").glob("*.yaml")))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_fixture_categories_are_valid():
    for cat in ALL_CATS:
        report = validate_category(cat)
        assert report.ok, (cat.name, report)


def test_missing_identity_is_structural():
    cat = FinCategory("bad", ("a",), (Morphism("u", "a", "a"),), {},
                      {("u", "u"): "u"})
    report = validate_category(cat)
    assert any("identity" in s for s in report.structural)


def test_non_composable_entry_is_structural():
    cat = FinCategory(
        "bad", ("a", "b"),
        (Morphism("ida", "a", "a"), Morphism("idb", "b", "b"),
         Morphism("f", "a", "b")),
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idb", "f"): "f",
         ("f", "ida"): "f", ("f", "f"): "f"})
    report = validate_category(cat)
    assert any("not composable" in s for s in report.structural)


def test_missing_composite_is_structural():
    cat = FinCategory(
        "bad", ("a", "b"),
        (Morphism("ida", "a", "a"), Morphism("idb", "b", "b"),
         Morphism("f", "a", "b")),
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idb", "f"): "f"})
    report = validate_category(cat)
    assert any("no composite" in s.lower() or "missing" in s.lower()
               for s in report.structural)


def test_broken_associativity_is_a_law_violation():
    comp = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("b", "e"): "b",
            ("a", "a"): "b", ("a", "b"): "e",
            ("b", "a"): "a", ("b", "b"): "b"}
    cat = FinCategory("skew", ("s",),
                      (Morphism("e", "s", "s"), Morphism("a", "s", "s"),
                       Morphism("b", "s", "s")),
                      {"s": "e"}, comp)
    report = validate_category(cat)
    assert not report.structural
    assert any("associat" in v for v in report.violations)


def test_broken_identity_absorption_is_a_law_violation():
    comp = {("e", "e"): "e", ("e", "u"): "e", ("u", "e"): "u",
            ("u", "u"): "u"}
    cat = FinCategory("absorb", ("s",),
                      (Morphism("e", "s", "s"), Morphism("u", "s", "s")),
                      {"s": "e"}, comp)
    report = validate_category(cat)
    assert any("id . u" in v for v in report.violations)


def test_functor_validation_catches_broken_composition():
    cat = cyc3()
    bad = SetFunctor("bad", cat, {"s": ("x", "y")},
                     {"e": {"x": "x", "y": "y"},
                      "r1": {"x": "y", "y": "x"},
                      "r2": {"x": "x", "y": "y"}})
    assert any("composition" in v for v in validate_functor(bad))


def test_hom_functors_are_functors():
    for cat in ALL_CATS:
        for a in cat.objects:
            assert validate_functor(hom_functor(cat, a)) == []


# ---------------------------------------------------------------------------
# naturality enumeration
# ---------------------------------------------------------------------------

def test_enumeration_matches_brute_force():
    for cat in ALL_CATS:
        functors = [hom_functor(cat, a) for a in cat.objects]
        functors.append(constant(cat))
        for F in functors:
            for G in functors:
                fast = enumerate_nat(F, G)
                slow = brute_nat(F, G)
                assert [e.encode() for e in fast] == \
                    [e.encode() for e in slow], (cat.name, F.name, G.name)


def test_enumerated_transformations_are_natural():
    cat = chain3()
    F, G = hom_functor(cat, "p"), constant(cat)
    for eta in enumerate_nat(F, G):
        assert is_natural(F, G, eta)


def test_empty_hom_set_means_no_transformations():
    cat = chain3()
    # nothing maps back down the chain, so hom(q,-) admits none into hom(r,-)
    assert enumerate_nat(hom_functor(cat, "q"), hom_functor(cat, "r")) == []
    # while the one composite q -> r induces exactly one the other way
    assert len(enumerate_nat(hom_functor(cat, "r"), hom_functor(cat, "q"))) == 1


def test_cross_category_enumeration_is_rejected():
    with pytest.raises(FinCatError):
        enumerate_nat(hom_functor(walking_iso(), "a"),
                      hom_functor(chain3(), "p"))


# ---------------------------------------------------------------------------
# the correspondence and representability
# ---------------------------------------------------------------------------

def test_yoneda_counts_match_elements():
    for cat in ALL_CATS:
        functors = [hom_functor(cat, a) for a in cat.objects]
        functors.append(constant(cat))
        for F in functors:
            for a in cat.objects:
                witness = yoneda_check(cat, a, F)
                assert witness.count == len(F.at(a))


def test_yoneda_rejects_non_functor_tables():
    cat = cyc3()
    bad = SetFunctor("bad", cat, {"s": ("x", "y")},
                     {"e": {"x": "x", "y": "y"},
                      "r1": {"x": "y", "y": "x"},
                      "r2": {"x": "x", "y": "y"}})
    with pytest.raises(YonedaError):
        yoneda_check(cat, "s", bad)


def test_isomorphic_objects_are_detected_with_witness():
    cat = walking_iso()
    ok, pair = representable_iso_check(cat, "a", "b")
    assert ok
    f, g = pair
    assert cat.comp(f, g) == cat.identity["a"]
    assert cat.comp(g, f) == cat.identity["b"]


def test_non_isomorphic_objects_are_rejected():
    ok, pair = representable_iso_check(chain3(), "p", "q")
    assert not ok and pair is None


def test_self_iso_uses_identity():
    ok, pair = representable_iso_check(chain3(), "p", "p")
    assert ok and pair == ("idp", "idp")


def test_iso_check_matches_the_paired_reference():
    pairs = 0
    for cat in ALL_CATS + FIXTURE_CATS:
        for a, b in itertools.product(cat.objects, repeat=2):
            assert representable_iso_check(cat, a, b) == \
                paired_iso_check(cat, a, b), (cat.name, a, b)
            pairs += 1
    assert pairs == 22 + 14  # 22 in the five fixtures, 14 in the three above
