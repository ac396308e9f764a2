"""Finite categories, set-valued functors, and Yoneda checks.

A finite category is presented by explicit data: objects, morphisms with
source and target, chosen identities, and a full composition table.
Set-valued functors are likewise tabular.  Both are checked once, when
built: ``FinCategory(...)`` and ``SetFunctor(...)`` raise FinCatError
with the first structural gap or law violation.

``enumerate_nat`` lists every natural transformation between two
functors; ``yoneda_check`` verifies, by exhaustive enumeration, that
transformations out of a hom-functor correspond one to one with
elements.  ``oracle.is_natural`` checks every square of a
transformation, and is the reference the enumeration is tested against.
"""

from __future__ import annotations

from typing import Mapping

from . import Record, WireboxError

Obj = str
MorId = str
Elem = str


class FinCatError(WireboxError):
    """Structural failure while building or using category data."""


class YonedaError(FinCatError):
    """An exhaustive correspondence check failed."""


class Morphism(Record):
    mid: MorId
    src: Obj
    tgt: Obj


class FinCategory(Record, eq=False):
    """Tabular category data, refused when built (``_category_errors``)."""

    name: str
    objects: tuple[Obj, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[Obj, MorId]
    composition: Mapping[tuple[MorId, MorId], MorId]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        object.__setattr__(self, "identity", dict(self.identity))
        object.__setattr__(self, "composition", dict(self.composition))
        errors = _category_errors(self)
        if errors:
            raise FinCatError(errors[0])

    def hom(self, a: Obj, b: Obj) -> list[MorId]:
        """Morphisms a -> b, sorted by id."""
        return sorted(m.mid for m in self.morphisms
                      if m.src == a and m.tgt == b)

    def comp(self, g: MorId, f: MorId) -> MorId:
        """g after f."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise FinCatError(f"no composite for ({g!r}, {f!r})") from None


def _category_errors(cat: FinCategory) -> list[str]:
    """The sorted structural findings, or else the sorted law violations.

    Structural: dangling ids, missing or mistyped identities, missing
    composites for composable pairs, entries for non-composable pairs,
    composites with the wrong endpoints.  Laws (only checked once the
    structure is sound): identity absorption and associativity, checked
    exhaustively over the tables.
    """
    structural: list[str] = []
    ids = [m.mid for m in cat.morphisms]
    if len(set(ids)) != len(ids):
        structural.append("morphism ids are not unique")
    if len(set(cat.objects)) != len(cat.objects):
        structural.append("objects are not unique")
    objset = set(cat.objects)
    for m in cat.morphisms:
        if m.src not in objset:
            structural.append(f"morphism {m.mid} has unknown source {m.src!r}")
        if m.tgt not in objset:
            structural.append(f"morphism {m.mid} has unknown target {m.tgt!r}")
    by_id = {m.mid: m for m in cat.morphisms}
    for a in cat.objects:
        i = cat.identity.get(a)
        if i is None:
            structural.append(f"object {a!r} has no identity")
        elif i not in by_id:
            structural.append(f"identity of {a!r} is an unknown morphism {i!r}")
        elif by_id[i].src != a or by_id[i].tgt != a:
            structural.append(f"identity of {a!r} is not an endomorphism of it")
    for a in cat.identity:
        if a not in objset:
            structural.append(f"identity table keys unknown object {a!r}")
    for (g, f), gf in sorted(cat.composition.items()):
        if g not in by_id or f not in by_id or gf not in by_id:
            structural.append(f"composition entry ({g}, {f}) -> {gf} "
                              f"mentions an unknown morphism")
            continue
        if by_id[f].tgt != by_id[g].src:
            structural.append(f"composition entry ({g}, {f}) is not composable")
        elif by_id[gf].src != by_id[f].src or by_id[gf].tgt != by_id[g].tgt:
            structural.append(
                f"composite of ({g}, {f}) has endpoints "
                f"{by_id[gf].src}->{by_id[gf].tgt}, expected "
                f"{by_id[f].src}->{by_id[g].tgt}")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.tgt == g.src and (g.mid, f.mid) not in cat.composition:
                structural.append(
                    f"no composite for composable pair ({g.mid}, {f.mid})")
    if structural:
        return sorted(structural)
    violations: list[str] = []
    for f in cat.morphisms:
        left = cat.comp(cat.identity[f.tgt], f.mid)
        if left != f.mid:
            violations.append(f"id . {f.mid} = {left}, expected {f.mid}")
        right = cat.comp(f.mid, cat.identity[f.src])
        if right != f.mid:
            violations.append(f"{f.mid} . id = {right}, expected {f.mid}")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if g.tgt != h.src:
                continue
            for f in cat.morphisms:
                if f.tgt != g.src:
                    continue
                a = cat.comp(cat.comp(h.mid, g.mid), f.mid)
                b = cat.comp(h.mid, cat.comp(g.mid, f.mid))
                if a != b:
                    violations.append(
                        f"associativity fails on ({h.mid}, {g.mid}, {f.mid}): "
                        f"{a} vs {b}")
    return sorted(violations)


# ---------------------------------------------------------------------------
# set-valued functors
# ---------------------------------------------------------------------------

class SetFunctor(Record, eq=False):
    """A functor into finite sets, as tables.

    ``on_objects`` assigns each object a tuple of distinct element names;
    ``on_morphisms`` assigns each morphism a map between the right sets;
    other tables are refused when built (``_functor_errors``).
    """

    name: str
    cat: FinCategory
    on_objects: Mapping[Obj, tuple[Elem, ...]]
    on_morphisms: Mapping[MorId, Mapping[Elem, Elem]]

    def __post_init__(self):
        object.__setattr__(self, "on_objects",
                           {a: tuple(v) for a, v in self.on_objects.items()})
        object.__setattr__(self, "on_morphisms",
                           {m: dict(v) for m, v in self.on_morphisms.items()})
        errors = _functor_errors(self)
        if errors:
            raise FinCatError(errors[0])

    def at(self, a: Obj) -> tuple[Elem, ...]:
        try:
            return self.on_objects[a]
        except KeyError:
            raise FinCatError(f"functor {self.name!r} undefined at {a!r}") from None

    def map(self, mid: MorId) -> Mapping[Elem, Elem]:
        try:
            return self.on_morphisms[mid]
        except KeyError:
            raise FinCatError(
                f"functor {self.name!r} undefined on morphism {mid!r}") from None


def _functor_errors(F: SetFunctor) -> list[str]:
    """Totality (each value a set, a map per morphism, nothing more),
    typing, then the functor laws: the first group that fails, or []."""
    cat, values = F.cat, F.on_objects
    out = [f"no value at object {a!r}" for a in cat.objects if a not in values]
    out += [f"no map for morphism {m.mid!r}" for m in cat.morphisms
            if m.mid not in F.on_morphisms]
    out += [f"value at {a!r} repeats an element" for a in cat.objects
            if len(set(values.get(a, ()))) != len(values.get(a, ()))]
    out += [f"value at unknown object {a!r}"
            for a in sorted(set(values) - set(cat.objects))]
    out += [f"map for unknown morphism {mid!r}" for mid in
            sorted(set(F.on_morphisms) - {m.mid for m in cat.morphisms})]
    if out:
        return out
    for m in cat.morphisms:
        fm = F.map(m.mid)
        dom, cod = set(F.at(m.src)), set(F.at(m.tgt))
        if set(fm) != dom:
            out.append(f"map of {m.mid!r} is not total on its domain")
        elif not set(fm.values()) <= cod:
            out.append(f"map of {m.mid!r} leaves its codomain")
    if out:
        return out
    for a in cat.objects:
        i = cat.identity[a]
        if any(F.map(i)[x] != x for x in F.at(a)):
            out.append(f"identity of {a!r} does not act as identity")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.tgt != g.src:
                continue
            gf = cat.comp(g.mid, f.mid)
            for x in F.at(f.src):
                if F.map(gf)[x] != F.map(g.mid)[F.map(f.mid)[x]]:
                    out.append(
                        f"composition law fails on ({g.mid}, {f.mid}) at {x!r}")
    return out


def hom_functor(cat: FinCategory, a: Obj) -> SetFunctor:
    """The covariant hom-functor of an object: sets of morphisms out of it.

    Elements at b are the ids of morphisms a -> b; a morphism g acts by
    postcomposition; a functor by construction, so built unchecked.
    """
    if a not in cat.objects:
        raise FinCatError(f"no object {a!r}")
    on_objects = {b: tuple(cat.hom(a, b)) for b in cat.objects}
    on_morphisms = {}
    for g in cat.morphisms:
        on_morphisms[g.mid] = {f: cat.comp(g.mid, f)
                               for f in on_objects[g.src]}
    return SetFunctor._built(f"hom({a},-)", cat, on_objects, on_morphisms)


# ---------------------------------------------------------------------------
# natural transformations
# ---------------------------------------------------------------------------

class NatTransformation(Record):
    """A family of maps F(a) -> G(a), natural in a."""

    components: Mapping[Obj, Mapping[Elem, Elem]]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           {a: dict(v) for a, v in self.components.items()})

    def at(self, a: Obj) -> Mapping[Elem, Elem]:
        return self.components[a]

    def encode(self) -> tuple:
        """Canonical encoding used for deterministic ordering."""
        return tuple((a, tuple(sorted(self.components[a].items())))
                     for a in sorted(self.components))


def _structure(cat: FinCategory) -> tuple:
    """What makes ``cat`` the category it is, for comparing two of them."""
    return (cat.name, set(cat.objects), set(cat.morphisms), cat.identity,
            cat.composition)


def enumerate_nat(F: SetFunctor, G: SetFunctor) -> list[NatTransformation]:
    """All natural transformations F => G, in canonical encoding order.

    Backtracking over component values with forced-value propagation:
    choosing eta_a(x) forces eta_b(F(g)(x)) = G(g)(eta_a(x)) for every
    g: a -> b, so contradictions prune early.  Complete because every
    slot is eventually assigned and every square relates two slots.

    Slots are chosen largest forward closure first (the slots that
    choosing it forces), ties in sorted order, so a generator of F comes
    before the slots it forces.  On hom(a,-) the identity of a forces
    every slot, so the search visits each slot once; sorted order could
    branch on every forced slot first, 3^n leaves on a fan of n arrows
    into a three-element functor.

    F and G must live on one category: the same object, or two equal in
    name and structure; each result is natural by construction, built unchecked.
    """
    if F.cat is not G.cat and _structure(F.cat) != _structure(G.cat):
        raise FinCatError("functors live on different categories")
    cat = F.cat
    out_by: dict[Obj, list[Morphism]] = {a: [] for a in cat.objects}
    for m in cat.morphisms:
        out_by[m.src].append(m)
    # the morphisms out of a are closed under composition, so one step
    # from (a, x) along each of them reaches its whole forward closure
    slots = sorted(((a, x) for a in cat.objects for x in F.at(a)),
                   key=lambda s: (-len({(m.tgt, F.map(m.mid)[s[1]])
                                        for m in out_by[s[0]]}), s))

    results: list[NatTransformation] = []

    def propagate(assign: dict, queue: list) -> bool:
        while queue:
            a, x = queue.pop()
            v = assign[(a, x)]
            for m in out_by[a]:
                slot = (m.tgt, F.map(m.mid)[x])
                forced = G.map(m.mid)[v]
                if slot in assign:
                    if assign[slot] != forced:
                        return False
                else:
                    assign[slot] = forced
                    queue.append(slot)
        return True

    def search(assign: dict):
        free = next((s for s in slots if s not in assign), None)
        if free is None:
            results.append(NatTransformation._built(
                {a: {x: assign[(a, x)] for x in F.at(a)} for a in cat.objects}))
            return
        a, _ = free
        for v in sorted(G.at(a)):
            trial = dict(assign)
            trial[free] = v
            if propagate(trial, [free]):
                search(trial)

    search({})
    results.sort(key=NatTransformation.encode)
    return results


# ---------------------------------------------------------------------------
# Yoneda
# ---------------------------------------------------------------------------

class YonedaWitness(Record):
    """The verified correspondence for one object and functor."""

    object: Obj
    functor: str
    pairs: tuple[tuple[tuple, Elem], ...]  # (encoded transformation, element)

    @property
    def count(self) -> int:
        return len(self.pairs)


def yoneda_check(cat: FinCategory, a: Obj, F: SetFunctor) -> YonedaWitness:
    """Verify that transformations hom(a,-) => F match elements of F(a).

    Enumerates all transformations, maps each to its value at the identity
    of a, and checks the assignment is a bijection onto F(a).  Raises
    YonedaError when any count, injectivity, or surjectivity check fails.
    """
    H = hom_functor(cat, a)
    nats = enumerate_nat(H, F)
    ida = cat.identity[a]
    pairs = tuple((eta.encode(), eta.at(a)[ida]) for eta in nats)
    elems = list(F.at(a))
    if len(nats) != len(elems):
        raise YonedaError(
            f"{len(nats)} transformations vs {len(elems)} elements at {a!r}")
    hit = [e for _, e in pairs]
    if len(set(hit)) != len(hit):
        raise YonedaError(f"evaluation at the identity of {a!r} is not injective")
    if set(hit) != set(elems):
        raise YonedaError(f"evaluation at the identity of {a!r} is not surjective")
    return YonedaWitness(a, F.name, pairs)


# ---------------------------------------------------------------------------
# the fincat.v1 document: ``fileformat`` dispatches it here, so only a
# command that reads a category compiles its loader
# ---------------------------------------------------------------------------

class FincatDoc(Record):
    schema: str
    category: FinCategory
    functors: Mapping[str, SetFunctor]


def _doc_fincat(d: dict, src: str) -> FincatDoc:
    from .fileformat import (LoadError, _field, _mapping, _named, _row,
                             _rows, _string_map, _symbols, _text_keyed)

    _row(d, src, ("schema", "name", "objects", "morphisms", "identities",
                  "composition", "functors"))
    name = _field(d, "name", src)
    objects = _field(d, "objects", src, _symbols)
    morphisms = tuple(
        Morphism(_field(row, "id", rp), _field(row, "src", rp), _field(row, "tgt", rp))
        for row, rp in _field(d, "morphisms", src, _rows(("id", "src", "tgt"))))
    identities = _field(d, "identities", src, _string_map)
    composition = {}
    for row, rp in _field(d, "composition", src, _rows(("after", "first", "result"))):
        key = (_field(row, "after", rp), _field(row, "first", rp))
        if key in composition:
            raise LoadError(rp, f"duplicate composition entry {key}")
        composition[key] = _field(row, "result", rp)
    try:
        cat = FinCategory(name, objects, morphisms, identities, composition)
    except FinCatError as e:
        raise LoadError(src, f"category {name!r}: {e}") from None

    def functor(row, rp: str, _) -> tuple[str, SetFunctor]:
        row = _row(row, rp, ("name", "objects", "morphisms"))
        fname = _field(row, "name", rp)
        on_obj = {k: _symbols(v, f"{rp}.objects[{k}]")
                  for k, v in _text_keyed(_field(row, "objects", rp, _mapping),
                                          f"{rp}.objects")}
        on_mor = {k: _string_map(v, f"{rp}.morphisms[{k}]")
                  for k, v in _text_keyed(_field(row, "morphisms", rp, _mapping),
                                          f"{rp}.morphisms")}
        try:
            return fname, SetFunctor(fname, cat, on_obj, on_mor)
        except FinCatError as e:
            raise LoadError(rp, f"functor {fname!r}: {e}") from None

    functors = _named(d.get("functors", []), f"{src}.functors", "functor", functor)
    return FincatDoc("fincat.v1", cat, functors)
