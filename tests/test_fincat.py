"""Finite categories, functor tables, and naturality enumeration."""

import itertools
import pathlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from categories import chain3, cyc3, walking_iso
from wirebox.fileformat import load
from wirebox.fincat import (FinCategory, FinCatError, Morphism,
                            NatTransformation, SetFunctor, YonedaError,
                            enumerate_nat, hom_functor, yoneda_check)
from wirebox.oracle import is_natural


def constant(cat: FinCategory, elements=("*",)) -> SetFunctor:
    return SetFunctor(f"const{len(elements)}", cat,
                      {a: tuple(elements) for a in cat.objects},
                      {m.mid: {x: x for x in elements} for m in cat.morphisms})


def poset(n: int, edges, names=None) -> FinCategory:
    """The partial order on 0..n-1 generated by the acyclic ``edges``
    (i, j), one morphism "i-j" per related pair; object i is named
    ``names[i]``, or p<i>."""
    below = {(i, i) for i in range(n)} | set(edges)
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in below and (k, j) in below:
            below.add((i, j))
    objs = tuple(names or (f"p{i}" for i in range(n)))
    mors = tuple(Morphism(f"{i}-{j}", objs[i], objs[j]) for i, j in sorted(below))
    comp = {(f"{j}-{k}", f"{i}-{j}"): f"{i}-{k}"
            for i, j in below for j2, k in below if j2 == j}
    return FinCategory(f"poset{n}", objs, mors,
                       {objs[i]: f"{i}-{i}" for i in range(n)}, comp)


def fan(n: int) -> FinCategory:
    """An apex z with one arrow to each of n objects; z sorts after them."""
    return poset(n + 1, [(n, j) for j in range(n)],
                 [f"o{j}" for j in range(n)] + ["z"])


def cyclic_monoids(shapes) -> FinCategory:
    """The product of the cyclic monoids <x | x^(i+p) = x^i>, one per
    (index i, period p) in ``shapes``, as a one-object category."""
    def mult(i, p):
        return lambda a, b: a + b if a + b < i + p else i + (a + b - i) % p

    factors = [(range(i + p), mult(i, p)) for i, p in shapes]
    elems = list(itertools.product(*(r for r, _ in factors)))

    def name(e):
        return "x" + "".join(map(str, e))

    comp = {(name(g), name(f)): name(tuple(m(a, b) for (_, m), a, b
                                           in zip(factors, g, f)))
            for g in elems for f in elems}
    return FinCategory("monoid" + str(shapes), ("s",),
                       tuple(Morphism(name(e), "s", "s") for e in elems),
                       {"s": name(elems[0])}, comp)


def coproduct(F: SetFunctor, G: SetFunctor) -> SetFunctor:
    """F + G, elements tagged 1: and 2:."""
    def tagged(t, H, a):
        return tuple(f"{t}:{x}" for x in H.at(a))

    cat = F.cat
    return SetFunctor(
        f"{F.name}+{G.name}", cat,
        {a: tagged(1, F, a) + tagged(2, G, a) for a in cat.objects},
        {m.mid: {f"{t}:{x}": f"{t}:{y}" for t, H in ((1, F), (2, G))
                 for x, y in H.map(m.mid).items()} for m in cat.morphisms})


def checked(F: SetFunctor) -> SetFunctor:
    """``F`` rebuilt through the checking constructor, which raises
    FinCatError unless it is a functor."""
    return SetFunctor(F.name, F.cat, F.on_objects, F.on_morphisms)


def refusal(build) -> str:
    """The message of the FinCatError that ``build()`` raises."""
    with pytest.raises(FinCatError) as e:
        build()
    return str(e.value)


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


ALL_CATS = (walking_iso(), chain3(), cyc3())
FIXTURE_CATS = tuple(
    load(p).category for p in sorted(
        (pathlib.Path(__file__).resolve().parent.parent / "fixtures"
         / "fincat").glob("*.yaml")))

# brute force tries every componentwise assignment; keep it this small
BRUTE_ASSIGNMENTS = 3000


def assignments(F: SetFunctor, G: SetFunctor) -> int:
    n = 1
    for a in F.cat.objects:
        n *= len(G.at(a)) ** len(F.at(a))
    return n


@st.composite
def small_categories(draw) -> FinCategory:
    shape = st.tuples(st.integers(0, 2), st.integers(1, 3))
    kind = draw(st.sampled_from(["fixed", "poset", "fan", "cospan", "monoid",
                                 "monoids"]))
    if kind == "fixed":
        return draw(st.sampled_from(ALL_CATS + FIXTURE_CATS))
    if kind == "poset":
        n = draw(st.integers(1, 4))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return poset(n, [e for e in pairs if draw(st.booleans())])
    if kind == "fan":
        return fan(draw(st.integers(1, 4)))
    if kind == "cospan":
        return poset(3, [(0, 2), (1, 2)])
    if kind == "monoid":
        return cyclic_monoids([draw(shape.filter(lambda s: sum(s) <= 4))])
    return cyclic_monoids([draw(st.tuples(st.integers(0, 1), st.integers(1, 2)))
                           for _ in range(2)])


@st.composite
def functor_pairs(draw) -> tuple[SetFunctor, SetFunctor]:
    """Two functors on one small category: hom functors, constant
    functors of one or two elements, and sums of two hom functors."""
    cat = draw(small_categories())
    homs = [hom_functor(cat, a) for a in cat.objects]
    functors = homs + [constant(cat), constant(cat, ("p", "q"))]
    functors += [coproduct(F, G) for F, G in itertools.product(homs, repeat=2)]
    pairs = [(F, G) for F in functors for G in functors
             if assignments(F, G) <= BRUTE_ASSIGNMENTS]
    return draw(st.sampled_from(pairs))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_fixture_categories_are_valid():
    # each was checked when built; a rebuild through the constructor agrees
    for cat in ALL_CATS + FIXTURE_CATS:
        again = FinCategory(cat.name, cat.objects, cat.morphisms,
                            cat.identity, cat.composition)
        assert again.composition == cat.composition, cat.name


def test_missing_identity_is_structural():
    assert refusal(lambda: FinCategory(
        "bad", ("a",), (Morphism("u", "a", "a"),), {},
        {("u", "u"): "u"})) == "object 'a' has no identity"


def test_non_composable_entry_is_structural():
    assert refusal(lambda: FinCategory(
        "bad", ("a", "b"),
        (Morphism("ida", "a", "a"), Morphism("idb", "b", "b"),
         Morphism("f", "a", "b")),
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idb", "f"): "f",
         ("f", "ida"): "f", ("f", "f"): "f"})) == \
        "composition entry (f, f) is not composable"


def test_missing_composite_is_structural():
    assert refusal(lambda: FinCategory(
        "bad", ("a", "b"),
        (Morphism("ida", "a", "a"), Morphism("idb", "b", "b"),
         Morphism("f", "a", "b")),
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idb", "f"): "f"})) == \
        "no composite for composable pair (f, ida)"


def test_broken_associativity_is_a_law_violation():
    # the structure is sound, so the first error is the first violation
    comp = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("b", "e"): "b",
            ("a", "a"): "b", ("a", "b"): "e",
            ("b", "a"): "a", ("b", "b"): "b"}
    assert refusal(lambda: FinCategory(
        "skew", ("s",),
        (Morphism("e", "s", "s"), Morphism("a", "s", "s"),
         Morphism("b", "s", "s")),
        {"s": "e"}, comp)).startswith("associativity fails on ")


def test_broken_identity_absorption_is_a_law_violation():
    comp = {("e", "e"): "e", ("e", "u"): "e", ("u", "e"): "u",
            ("u", "u"): "u"}
    assert refusal(lambda: FinCategory(
        "absorb", ("s",),
        (Morphism("e", "s", "s"), Morphism("u", "s", "s")),
        {"s": "e"}, comp)) == "id . u = e, expected u"


def test_broken_right_identity_is_a_law_violation():
    # every composite g . f is f, so the identity absorbs on the left only
    comp = {("e", "e"): "e", ("e", "u"): "u", ("u", "e"): "e",
            ("u", "u"): "u"}
    assert refusal(lambda: FinCategory(
        "right", ("s",),
        (Morphism("e", "s", "s"), Morphism("u", "s", "s")),
        {"s": "e"}, comp)) == "u . id = e, expected u"


def swapped_cyc3_tables() -> tuple:
    """Tables on cyc3 whose r1 and r2 both act as one swap, so r1 after r1
    is not r2."""
    return (cyc3(), {"s": ("x", "y")},
            {"e": {"x": "x", "y": "y"},
             "r1": {"x": "y", "y": "x"},
             "r2": {"x": "x", "y": "y"}})


def test_functor_validation_catches_broken_composition():
    assert "composition law fails" in refusal(
        lambda: SetFunctor("bad", *swapped_cyc3_tables()))


def test_a_functor_is_refused_for_a_value_or_map_the_category_lacks():
    cat = cyc3()
    objects = {"s": ("x",)}
    maps = {m.mid: {"x": "x"} for m in cat.morphisms}
    assert refusal(lambda: SetFunctor("F", cat, {"s": ("x", "y", "x")},
                                      {m: {"x": "x", "y": "y"} for m in maps})) \
        == "value at 's' repeats an element"
    assert refusal(lambda: SetFunctor("F", cat, {**objects, "zz": ("x",)},
                                      maps)) == "value at unknown object 'zz'"
    assert refusal(lambda: SetFunctor("F", cat, objects,
                                      {**maps, "nope": {"x": "x"}})) == \
        "map for unknown morphism 'nope'"
    # a gap is still named before any of the three
    assert refusal(lambda: SetFunctor("F", cat, {"zz": ("x",)}, maps)) == \
        "no value at object 's'"


def test_a_functor_must_send_identities_to_identities():
    # a constant map on the one identity composes with itself, so only
    # the identity law fails
    one = FinCategory("one", ("s",), (Morphism("e", "s", "s"),), {"s": "e"},
                      {("e", "e"): "e"})
    assert refusal(lambda: SetFunctor(
        "F", one, {"s": ("x", "y")}, {"e": {"x": "x", "y": "x"}})) == \
        "identity of 's' does not act as identity"


def test_hom_functors_are_functors():
    # hom_functor builds unchecked; the checking constructor is the reference
    for cat in ALL_CATS + FIXTURE_CATS:
        for a in cat.objects:
            H = hom_functor(cat, a)
            again = checked(H)
            assert (again.on_objects, again.on_morphisms) == \
                (H.on_objects, H.on_morphisms), (cat.name, a)


# ---------------------------------------------------------------------------
# naturality enumeration
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(functor_pairs())
def test_enumeration_matches_brute_force(pair):
    # the same transformations in the same order
    F, G = pair
    checked(F)
    checked(G)
    fast = enumerate_nat(F, G)
    assert [e.encode() for e in fast] == \
        [e.encode() for e in brute_nat(F, G)], (F.cat.name, F.name, G.name)


def test_the_generators_are_valid_categories():
    cats = [poset(4, [(0, 1), (1, 2), (0, 3)]), fan(3), poset(3, [(0, 2), (1, 2)]),
            cyclic_monoids([(2, 2)]), cyclic_monoids([(0, 2), (1, 1)])]
    # each was checked when built
    assert len(poset(4, [(0, 1), (1, 2), (0, 3)]).morphisms) == 4 + 4
    assert len(cyclic_monoids([(0, 2), (1, 2)]).morphisms) == 6


def test_a_fan_of_forty_arrows_is_checked_in_linear_time():
    # the apex identity forces every slot; taken last, the search would
    # branch three ways at each of the forty arrows first
    cat = fan(40)
    F = constant(cat, ("a", "b", "c"))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        witness = yoneda_check(cat, "z", F)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [e for _, e in witness.pairs] == ["a", "b", "c"]
    assert elapsed < 1.0
    assert peak < 1_000_000


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


def monoid_m(square: str) -> FinCategory:
    """The category ``m`` with one object and morphisms e and a, where
    a after a is ``square``: a for the idempotent, e for the group."""
    return FinCategory("m", ("s",), (Morphism("e", "s", "s"),
                                     Morphism("a", "s", "s")),
                       {"s": "e"}, {("e", "e"): "e", ("e", "a"): "a",
                                    ("a", "e"): "a", ("a", "a"): square})


def test_cross_category_enumeration_is_rejected():
    pairs = [(hom_functor(walking_iso(), "a"), hom_functor(chain3(), "p")),
             # one name, one object, one set of ids, two compositions
             (hom_functor(monoid_m("a"), "s"), hom_functor(monoid_m("e"), "s"))]
    for F, G in pairs:
        checked(F)
        checked(G)
        with pytest.raises(FinCatError, match="different categories"):
            enumerate_nat(F, G)
    # two equal copies of one category are one category
    assert len(enumerate_nat(hom_functor(cyc3(), "s"),
                             hom_functor(cyc3(), "s"))) == 3


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
    # the constructor refuses the tables; forced past it, the exhaustive
    # check still finds the failed correspondence
    tables = swapped_cyc3_tables()
    with pytest.raises(FinCatError, match="composition law fails"):
        SetFunctor("bad", *tables)
    with pytest.raises(YonedaError):
        yoneda_check(tables[0], "s", SetFunctor._built("bad", *tables))

