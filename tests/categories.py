"""Builders for the small finite categories the fincat tests and fixtures
share: the walking isomorphism, the chain p -> q -> r, and the cyclic
group of order three as a one-object category.

``scripts/gen_fixtures.py`` writes ``fixtures/fincat/`` from these
builders, among others.
"""

from __future__ import annotations

from wirebox.fincat import FinCategory, Morphism


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
