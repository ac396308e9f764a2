"""Boxes, wirings, their category laws, and normal forms."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_box, random_network, random_raw_network,
                    random_stack, random_wiring, rebuilt)
from wirebox import _kept, wiring
from wirebox.attacks import CompositeSystem, RewireStep, apply_rewire
from wirebox.fingerprints import wiring_text
from wirebox.moore import apply_algebra
from wirebox.oracle import _eval, eval_equal, route
from wirebox.wiring import (Box, CompositionError, Const, InnerOut, OuterIn,
                            Port, Table, Wiring, WiringError, _Routing,
                            compose, expr_refs, identity_of, identity_wiring,
                            precompose_slot, tensor)

B = Box("b", (Port("x", BIT), Port("y", BIT)), (Port("o", BIT),))
C = Box("c", (Port("u", BIT),), (Port("v", BIT), Port("w", BIT)))


def pipe() -> Wiring:
    # b then c, outer box keeps b's inputs and c's outputs
    outer = Box("p", B.in_ports, C.out_ports)
    return Wiring(
        (B, C), (outer,),
        {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "y"),
         (1, "u"): InnerOut(0, "o")},
        {(0, "v"): InnerOut(1, "v"), (0, "w"): InnerOut(1, "w")})


ONE = ("1",)
PIN = Box("pin", (Port("k", ONE),), (Port("h", ONE),))


def pinned() -> Wiring:
    # a one-symbol outer input feeds b, b feeds the one-symbol inner output
    # back, and the outer output reads that one-symbol inner output; the
    # maps as written, which the constructor normalizes
    return Wiring._built((B, PIN), (PIN,),
                         {(0, "x"): OuterIn(0, "k"), (0, "y"): InnerOut(1, "h"),
                          (1, "k"): Const("1")},
                         {(0, "h"): InnerOut(1, "h")})


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_port_rejects_empty_alphabet():
    with pytest.raises(WiringError):
        Port("x", ())


def test_port_rejects_empty_name():
    with pytest.raises(WiringError, match="^port name must be nonempty$"):
        Port("", BIT)


def test_port_rejects_duplicate_symbols():
    with pytest.raises(WiringError):
        Port("x", ("0", "0"))


def test_box_rejects_duplicate_port_names():
    with pytest.raises(WiringError):
        Box("b", (Port("x", BIT), Port("x", BIT)), ())


def test_wiring_requires_every_inner_input():
    with pytest.raises(WiringError, match="missing"):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x")},
               {(0, "o"): InnerOut(0, "o")})


def test_wiring_rejects_dangling_reference():
    with pytest.raises(WiringError):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x"), (0, "y"): InnerOut(3, "o")},
               {(0, "o"): InnerOut(0, "o")})


def test_wiring_rejects_unknown_port_name():
    with pytest.raises(WiringError):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "nope")},
               {(0, "o"): InnerOut(0, "o")})


def test_output_may_not_read_outer_input():
    # readouts flow out, never straight through
    with pytest.raises(WiringError, match="outer input"):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "y")},
               {(0, "o"): OuterIn(0, "x")})


def test_output_table_may_not_read_outer_input_nested():
    t = Table((InnerOut(0, "o"),
               Table((OuterIn(0, "x"),), ((("0",), "0"), (("1",), "1")))),
              tuple(((a, b), a) for a in BIT for b in BIT))
    with pytest.raises(WiringError, match="outer input"):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "y")},
               {(0, "o"): t})


def test_table_requires_total_entries():
    with pytest.raises(WiringError, match="misses key"):
        Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): Table((OuterIn(0, "x"),), ((("0",), "1"),)),
                (0, "y"): OuterIn(0, "y")},
               {(0, "o"): InnerOut(0, "o")})


def test_table_rejects_a_repeated_key():
    with pytest.raises(WiringError, match="^table repeats a key$"):
        Table((OuterIn(0, "x"),), ((("0",), "0"), (("1",), "1"), (("0",), "1")))


def test_alphabet_mismatch_is_rejected():
    wide = Box("w", (Port("x", ("0", "1", "2")),), (Port("o", BIT),))
    with pytest.raises(WiringError, match="alphabet"):
        Wiring((B,), (Box("o", wide.in_ports, B.out_ports),),
               {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "x")},
               {(0, "o"): InnerOut(0, "o")})


# the outer box of the refusals below: b's ports, plus a three-symbol input
WIDE = Box("o", B.in_ports + (Port("t", ("0", "1", "2")),), B.out_ports)
FLIP = ((("0",), "1"), (("1",), "0"))


@pytest.mark.parametrize("ins, outs, message", [
    # each case changes the valid wiring below; None deletes an entry
    ({(0, "y"): None}, {},
     "in_map must cover inner input ports exactly; missing [(0, 'y')], "
     "extra []"),
    ({(0, "z"): OuterIn(0, "x")}, {},
     "in_map must cover inner input ports exactly; missing [], "
     "extra [(0, 'z')]"),
    ({}, {(0, "o"): None},
     "out_map must cover outer output ports exactly; missing [(0, 'o')], "
     "extra []"),
    ({}, {(1, "o"): InnerOut(0, "o")},
     "out_map must cover outer output ports exactly; missing [], "
     "extra [(1, 'o')]"),
    # in_map's cover is checked first, and both covers before any expression
    ({(0, "y"): None}, {(0, "o"): None},
     "in_map must cover inner input ports exactly; missing [(0, 'y')], "
     "extra []"),
    ({(0, "y"): Const("2")}, {(0, "o"): None},
     "out_map must cover outer output ports exactly; missing [(0, 'o')], "
     "extra []"),
    ({(0, "y"): Const("2")}, {},
     "inner input 0.y: constant '2' is not in the target alphabet ['0', '1']"),
    ({(0, "y"): OuterIn(0, "t")}, {},
     "inner input 0.y: source alphabet ['0', '1', '2'] is not contained in "
     "target alphabet ['0', '1']"),
    ({(0, "y"): Table((OuterIn(0, "t"),), ((("0",), "1"), (("1",), "2"),
                                           (("2",), "2")))}, {},
     "inner input 0.y: table value '2' at key ('1',) is not in the target "
     "alphabet ['0', '1']"),
    ({}, {(0, "o"): Table((InnerOut(0, "o"),), ((("0",), "3"), (("1",), "2")))},
     "outer output 0.o: table value '3' at key ('0',) is not in the target "
     "alphabet ['0', '1']"),
    ({(0, "y"): Table((OuterIn(0, "t"),), FLIP)}, {},
     "inner input 0.y: table misses key ('2',)"),
    ({(0, "y"): Table((Table((OuterIn(0, "x"),), ((("0",), "1"),)),), FLIP)},
     {}, "inner input 0.y: table misses key ('1',)"),
    # a nested table is checked before the keys of the table it feeds, and
    # a table's keys before its values
    ({(0, "y"): Table((Table((OuterIn(0, "t"),), FLIP), OuterIn(0, "t")), ())},
     {}, "inner input 0.y: table misses key ('2',)"),
    ({(0, "y"): Table((OuterIn(0, "x"),), ((("0",), "2"),))}, {},
     "inner input 0.y: table misses key ('1',)"),
    ({}, {(0, "o"): OuterIn(0, "x")},
     "outer output 0.o: outer inputs may not feed outer outputs"),
    ({}, {(0, "o"): Table((InnerOut(0, "o"), Table((OuterIn(0, "x"),), FLIP)),
                          ())},
     "outer output 0.o: outer inputs may not feed outer outputs"),
    ({(0, "y"): InnerOut(3, "o")}, {}, "inner input 0.y: no inner box 3"),
    ({(0, "y"): OuterIn(2, "x")}, {}, "inner input 0.y: no outer box 2"),
    ({(0, "y"): Table((InnerOut(1, "o"),), FLIP)}, {},
     "inner input 0.y: no inner box 1"),
    ({(0, "y"): InnerOut(0, "zz")}, {}, "box 'b' has no output port 'zz'"),
    ({(0, "y"): OuterIn(0, "zz")}, {}, "box 'o' has no input port 'zz'"),
    ({(0, "y"): "x"}, {}, "inner input 0.y: not a source expression: 'x'"),
    ({(0, "y"): Table(("x",), ((("x",), "0"),))}, {},
     "inner input 0.y: not a source expression: 'x'"),
])
def test_every_wiring_refusal_keeps_its_message(ins, outs, message):
    in_map = {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "y")}
    out_map = {(0, "o"): InnerOut(0, "o")}
    Wiring((B,), (WIDE,), in_map, out_map)  # valid unchanged
    for table, changes in ((in_map, ins), (out_map, outs)):
        for key, expr in changes.items():
            if expr is None:
                del table[key]
            else:
                table[key] = expr
    with pytest.raises(WiringError) as exc:
        Wiring((B,), (WIDE,), in_map, out_map)
    assert str(exc.value) == message


def test_expr_refs_deduplicates_in_order():
    t = Table((OuterIn(0, "x"), InnerOut(0, "o"), OuterIn(0, "x")),
              tuple((k, "0") for k in
                    [(a, b, c) for a in BIT for b in BIT for c in BIT]))
    assert expr_refs(t) == [OuterIn(0, "x"), InnerOut(0, "o")]


def test_eval_expr_table():
    t = Table((OuterIn(0, "x"), OuterIn(0, "y")),
              ((("0", "0"), "0"), (("0", "1"), "1"),
               (("1", "0"), "1"), (("1", "1"), "0")))
    # the reference evaluator reads inner and outer values by (box, port)
    assert _eval(t, {}, {(0, "x"): "1", (0, "y"): "1"}) == "0"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def points(w: Wiring) -> list[tuple[tuple, tuple]]:
    """Every (inner output values, outer input values) pair of ``w``."""
    def values(ports):
        return list(itertools.product(*(p.alphabet for _, p in ports)))
    return [(inner_outs, outer_in)
            for inner_outs in values(w.inner_output_ports())
            for outer_in in values(w.outer_input_ports())]


def routed(routing: _Routing, values: tuple) -> tuple[tuple, tuple]:
    """(inner input values, outer output values) of a compiled routing
    for a flat value tuple: inner outputs, then outer inputs."""
    return (tuple([v for f in routing.slots for v in f(values)]),
            routing.outer_out(values))


def test_evaluate_pipe():
    w = pipe()
    inner_ins, outer_out = routed(_Routing(w), ("1", "0", "1") + ("1", "0"))
    # b reads the outer pair, c reads b's readout
    assert inner_ins == ("1", "0", "1")
    assert outer_out == ("0", "1")


def test_identity_evaluation_is_transparent():
    w = identity_wiring(B)
    inner_ins, outer_out = routed(_Routing(w), ("1",) + ("0", "1"))
    assert inner_ins == ("0", "1")
    assert outer_out == ("1",)


def test_evaluate_sourceless_table():
    w = identity_wiring(B)
    in_map = dict(w.in_map)
    in_map[(0, "y")] = Table((), (((), "1"),))
    inner_ins, _ = routed(_Routing(Wiring(w.inner, w.outer, in_map, w.out_map)),
                          ("0",) + ("0", "0"))
    assert inner_ins == ("0", "1")


def test_eval_equal_tells_a_rerouted_input_apart():
    w = pipe()
    in_map = dict(w.in_map)
    in_map[(0, "x")] = OuterIn(0, "y")
    flipped = Wiring(w.inner, w.outer, in_map, w.out_map)
    assert eval_equal(w, pipe())
    assert not eval_equal(w, flipped)
    with pytest.raises(WiringError, match="different boundaries"):
        eval_equal(w, identity_wiring(B))


def nested(w: Wiring) -> Wiring:
    # every source wrapped in an identity table over its target alphabet,
    # taken as written: the constructor would unwrap it again
    def wrap(expr, port):
        return Table((expr,), tuple(((v,), v) for v in port.alphabet))
    return Wiring._built(w.inner, w.outer,
                         {(i, p.name): wrap(w.in_map[(i, p.name)], p)
                          for i, p in w.inner_input_ports()},
                         {(j, p.name): wrap(w.out_map[(j, p.name)], p)
                          for j, p in w.outer_output_ports()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_evaluate_agrees_with_the_uncompiled_reference(seed):
    rng = random.Random(seed)
    f, g, _ = random_stack(rng)
    for w in (f, compose(g, f), nested(f)):
        routing = _Routing(w)
        for inner_outs, outer_in in points(w):
            assert routed(routing, inner_outs + outer_in) == \
                route(w, inner_outs, outer_in)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_normalize_agrees_with_the_uncompiled_reference(seed):
    # the constructor normalizes raw maps: random_stack's as drawn, and
    # nested tables
    rng = random.Random(seed)
    raw, _ = random_raw_network(rng, "m")
    f = rebuilt(raw)
    g = random_wiring(rng, (f.outer[0],), random_box(rng, "mz"))
    for w in (raw, nested(raw), nested(compose(g, f))):
        exprs = list(w.in_map.values()) + list(w.out_map.values())
        norm = rebuilt(w)
        assert list(norm.in_map) == list(w.in_map)
        assert list(norm.out_map) == list(w.out_map)
        normal = list(norm.in_map.values()) + list(norm.out_map.values())
        flat = ([InnerOut(i, p.name) for i, p in w.inner_output_ports()]
                + [OuterIn(j, p.name) for j, p in w.outer_input_ports()])
        for n in normal:
            if isinstance(n, Table):
                places = [flat.index(r) for r in n.sources]
                assert places == sorted(set(places))
        for inner_outs, outer_in in points(w):
            inner = {(i, p.name): v for (i, p), v
                     in zip(w.inner_output_ports(), inner_outs)}
            outer = {(j, p.name): v for (j, p), v
                     in zip(w.outer_input_ports(), outer_in)}
            assert [_eval(n, inner, outer) for n in normal] == \
                [_eval(e, inner, outer) for e in exprs]


# ---------------------------------------------------------------------------
# category laws
# ---------------------------------------------------------------------------

def _seeded(seed: int):
    return random.Random(seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_identity_laws(seed):
    rng = _seeded(seed)
    f, _ = random_network(rng)
    left = compose(identity_of(f.outer), f)
    right = compose(f, identity_of(f.inner))
    assert left == f
    assert right == f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_compose_associative(seed):
    rng = _seeded(seed)
    f, g, _ = random_stack(rng)
    hbox = random_box(rng, "assoc")
    h = random_wiring(rng, (g.outer[0],), hbox)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_tensor_interchange(seed):
    rng = _seeded(seed)
    f1, g1, _ = random_stack(rng, "a")
    f2, g2, _ = random_stack(rng, "b")
    lhs = compose(tensor((g1, g2)), tensor((f1, f2)))
    rhs = tensor((compose(g1, f1), compose(g2, f2)))
    assert lhs == rhs


def test_compose_rejects_boundary_mismatch():
    with pytest.raises(CompositionError) as exc:
        compose(pipe(), pipe())
    assert str(exc.value) == "boundary mismatch: 1 outer boxes vs 2 inner boxes"


@pytest.mark.parametrize("hole, message", [
    (Box("b2", B.in_ports, B.out_ports), "box 'b' vs 'b2'"),
    (Box("b", B.in_ports[:1], B.out_ports), "box 'b' has 2 vs 1 input ports"),
    (Box("b", B.in_ports, B.out_ports + (Port("p", BIT),)),
     "box 'b' has 1 vs 2 output ports"),
    (Box("b", (Port("z", BIT),) + B.in_ports[1:], B.out_ports),
     "input port 'x' vs 'z' on box 'b'"),
    (Box("b", B.in_ports, (Port("o", ("1", "0")),)),
     "output port 'o' on box 'b': alphabet ['0', '1'] vs ['1', '0']"),
])
def test_compose_names_the_first_boundary_difference(hole, message):
    with pytest.raises(CompositionError) as exc:
        compose(identity_wiring(hole), identity_wiring(B))
    assert str(exc.value) == f"boundary box 0: {message}"


def test_tensor_shifts_indices():
    w = tensor((identity_wiring(B), identity_wiring(C)))
    assert w.inner == (B, C)
    assert w.in_map[(1, "u")] == OuterIn(1, "u")
    assert w.out_map[(1, "v")] == InnerOut(1, "v")


def test_identity_and_tensor_on_a_one_symbol_port_are_normal():
    # a port of one symbol reads that symbol, as the constructor writes it
    assert identity_wiring(PIN).in_map == {(0, "k"): Const("1")}
    assert identity_wiring(PIN).out_map == {(0, "h"): Const("1")}
    for w in (identity_wiring(PIN), identity_of((B, PIN)),
              tensor((rebuilt(pinned()), identity_wiring(PIN), pipe()))):
        assert rebuilt(w) == w


def test_tensor_of_nothing_is_rejected():
    with pytest.raises(WiringError):
        tensor(())


def algebra_results(rng):
    # every kind of wiring the algebra builds, from one seeded stack
    f, g, machines = random_stack(rng)
    f2, g2, _ = random_stack(rng, "b")
    slot = rng.randrange(len(f.inner))
    endo = random_wiring(rng, (f.inner[slot],), f.inner[slot])
    rewired = apply_rewire(CompositeSystem(f, machines), RewireStep(slot, endo))
    return ([identity_wiring(b) for b in f.inner + f.outer + g.outer]
            + [identity_of(f.inner), identity_of(f.outer + f2.outer),
               tensor((f, f2)), tensor((g, g2, f)),
               compose(g, f), compose(g, nested(f)), compose(nested(g), f),
               compose(tensor((g, g2)), tensor((f, f2))),
               compose(g, tensor((compose(f, identity_of(f.inner)),))),
               rewired.wiring]
            # ports of one symbol, which a normal form reads as constants
            + [identity_wiring(PIN), identity_of((PIN, f.outer[0])),
               tensor((rebuilt(pinned()), f)),
               compose(rebuilt(pinned()), identity_of((B, PIN))),
               compose(identity_wiring(PIN), rebuilt(pinned()))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_algebra_results_pass_the_validating_constructor(seed):
    # the algebra skips validation on what it builds; the public
    # constructor is the slow reference it must agree with
    for w in algebra_results(random.Random(seed)):
        again = rebuilt(w)
        assert again == w
        assert list(again.in_map) == list(w.in_map)
        assert list(again.out_map) == list(w.out_map)


# ---------------------------------------------------------------------------
# rewiring one slot
# ---------------------------------------------------------------------------

def padded(g: Wiring, index: int, endo: Wiring) -> Wiring:
    """The reference for ``precompose_slot``: g composed with the identity
    on every inner box but ``endo`` at ``index``."""
    pads = [identity_wiring(b) for b in g.inner]
    pads[index] = endo
    return compose(g, tensor(pads))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_precompose_slot_is_the_padded_composite(seed):
    # endomorphisms drawn like any wiring remap outputs, and read
    # constants and tables
    rng = random.Random(seed)
    g, _ = random_network(rng)
    index = rng.randrange(len(g.inner))
    endo = random_wiring(rng, (g.inner[index],), g.inner[index])
    want = padded(g, index, endo)
    fresh = _Routing(want)
    # the components endo leaves alone: every box but the slot whose
    # inputs read no slot output that endo remaps; likewise the outer outputs
    remapped = {InnerOut(index, q) for (_, q), e in endo.out_map.items()
                if e != InnerOut(0, q)}

    def rerouted(exprs):
        return any(r in remapped for e in exprs for r in expr_refs(e))

    untouched = [k != index and not rerouted(
                     g.in_map[(k, p.name)] for p in b.in_ports)
                 for k, b in enumerate(g.inner)]
    outer_untouched = not rerouted(g.out_map.values())
    results = [precompose_slot(g, index, endo)]
    _kept(g, "_routing", _Routing)  # compiles g's routing and keeps it
    results.append(precompose_slot(g, index, endo))
    got = results[-1]
    # a derived routing reuses g's function for every component whose
    # entries are g's own objects, which every untouched one's are, and
    # compiles the others
    mine, theirs = got._routing, g._routing
    own = [all(got.in_map[(k, p.name)] is g.in_map[(k, p.name)]
               for p in b.in_ports) for k, b in enumerate(g.inner)]
    outer_own = all(got.out_map[key] is e for key, e in g.out_map.items())
    assert [f is h for f, h in zip(mine.slots, theirs.slots)] == own
    assert (mine.outer_out is theirs.outer_out) == outer_own
    assert all(o for o, u in zip(own, untouched) if u)
    assert outer_own or not outer_untouched
    for k, got in enumerate(results):
        assert got == want
        assert list(got.in_map) == list(want.in_map)
        assert list(got.out_map) == list(want.out_map)
        assert wiring_text(got) == wiring_text(want)
        assert rebuilt(got) == got
        # a routing is derived from the base's when the base has one
        assert hasattr(got, "_routing") == (k == 1)
        routing = _kept(got, "_routing", _Routing)
        for inner_outs, outer_in in points(g):
            values = inner_outs + outer_in
            assert routed(routing, values) == routed(fresh, values)
        # a taken flag is g's for the same entries, so it is exact
        assert got._routing.reads_outer == fresh.reads_outer


def test_a_rewire_normalizes_only_the_slot_and_builds_no_pad(monkeypatch):
    g, machines = random_network(random.Random(3))
    index = len(g.inner) - 1
    box = g.inner[index]
    endo = Wiring((box,), (box,),
                  {(0, p.name): Const("1") for p in box.in_ports},
                  {(0, p.name): InnerOut(0, p.name) for p in box.out_ports})
    _kept(g, "_routing", _Routing)  # compiles g's routing and keeps it
    for name in ("compose", "tensor", "identity_wiring"):
        monkeypatch.setattr(wiring, name, None)
    normalized, entries, substituted, compiled = [], [], [], []
    monkeypatch.setattr(wiring, "_normal_form",
                        lambda w, real=wiring._normal_form:
                        normalized.append(w) or real(w))
    monkeypatch.setattr(wiring, "_normalize_expr",
                        lambda w, at, e, real=wiring._normalize_expr:
                        entries.append(e) or real(w, at, e))
    monkeypatch.setattr(wiring, "_substitute",
                        lambda e, sub, real=wiring._substitute:
                        substituted.append(e) or real(e, sub))
    monkeypatch.setattr(wiring, "_compile_tuple",
                        lambda exprs, at, real=wiring._compile_tuple:
                        compiled.append(exprs) or real(exprs, at))
    system = CompositeSystem(g, machines)
    first = apply_rewire(system, RewireStep(index, endo))
    # the base is a normal form already, and only the slot's inputs are
    # normalized, since endo remaps none of its outputs
    assert normalized == []
    assert len(entries) == len(box.in_ports)
    # nothing but endo's own entries is substituted into, and only the
    # rerouted slot is compiled
    assert [id(e) for e in substituted] == [id(e) for e in endo.in_map.values()]
    assert compiled == [[Const("1")] * len(box.in_ports)]
    mine, theirs = first.wiring._routing, g._routing
    assert all(f is h for f, h in zip(mine.slots[:index], theirs.slots))
    assert mine.outer_out is theirs.outer_out
    second = apply_rewire(system, RewireStep(index, endo))
    assert normalized == []
    assert len(entries) == 2 * len(box.in_ports)
    assert len(substituted) == 2 * len(box.in_ports)
    assert len(compiled) == 2
    assert second.wiring == first.wiring
    assert all(second.wiring.in_map[(index, p.name)] == Const("1")
               for p in box.in_ports)


def quiet_endo(rng: random.Random, box: Box) -> Wiring:
    """An endomorphism of ``box`` that remaps no output, as the fixtures'
    ``gps-swap`` and the benchmark's do: the identity, or inputs drawn
    like any wiring's, over the box's own inputs and outputs, with their
    keys in a shuffled order."""
    if rng.random() < 0.25:
        return identity_wiring(box)
    drawn = random_wiring(rng, (box,), box)
    keys = list(drawn.in_map)
    rng.shuffle(keys)
    return Wiring((box,), (box,), {k: drawn.in_map[k] for k in keys},
                  {(0, p.name): InnerOut(0, p.name) for p in box.out_ports})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_a_rewire_that_remaps_no_output_compiles_only_its_slot(seed):
    rng = random.Random(seed)
    drawn, _ = random_network(rng)
    # a base whose inputs are keyed in a shuffled order, as a document
    # may write them; the result's order is the padded composite's
    keys = list(drawn.in_map)
    rng.shuffle(keys)
    g = Wiring(drawn.inner, drawn.outer, {k: drawn.in_map[k] for k in keys},
               drawn.out_map)
    index = rng.randrange(len(g.inner))
    endo = quiet_endo(rng, g.inner[index])
    want = padded(g, index, endo)
    theirs = _kept(g, "_routing", _Routing)
    got = precompose_slot(g, index, endo)
    assert got == want
    assert list(got.in_map) == list(want.in_map)
    assert list(got.out_map) == list(want.out_map)
    assert wiring_text(got) == wiring_text(want)
    # every other slot and the outer outputs keep g's functions; the
    # slot keeps its own when its entries come back as g's objects
    mine = got._routing
    own = all(got.in_map[(index, p.name)] is g.in_map[(index, p.name)]
              for p in g.inner[index].in_ports)
    assert [f is h for f, h in zip(mine.slots, theirs.slots)] == \
        [k != index or own for k in range(len(g.inner))]
    assert mine.outer_out is theirs.outer_out
    assert all(got.in_map[key] is e for key, e in g.in_map.items()
               if key[0] != index)
    assert all(got.out_map[key] is e for key, e in g.out_map.items())
    fresh = _Routing(want)
    for inner_outs, outer_in in points(g):
        values = inner_outs + outer_in
        assert routed(mine, values) == routed(fresh, values)
    assert mine.reads_outer == fresh.reads_outer


@pytest.mark.parametrize("seed", range(6))
def test_a_rewire_takes_its_base_positions_and_computes_none(monkeypatch, seed):
    g, machines = random_network(random.Random(seed))
    index = len(g.inner) - 1
    box = g.inner[index]
    # each output advanced one symbol along its alphabet, so the entries
    # that read the slot are normalized again over the positions
    endo = Wiring((box,), (box,),
                  {(0, p.name): OuterIn(0, p.name) for p in box.in_ports},
                  {(0, p.name): Table((InnerOut(0, p.name),), tuple(
                      ((a,), p.alphabet[(k + 1) % len(p.alphabet)])
                      for k, a in enumerate(p.alphabet)))
                   for p in box.out_ports})
    apply_algebra(g, machines)  # compiles g's routing
    real, calls = wiring._positions, []
    monkeypatch.setattr(wiring, "_positions",
                        lambda w: calls.append(w) or real(w))
    n = precompose_slot(g, index, endo)
    second = precompose_slot(n, index, endo)
    assert calls == []
    assert n._positions is g._positions and second._positions is g._positions
    assert n._positions == real(n)
    assert (n, second) == (padded(g, index, endo), padded(n, index, endo))


def test_precompose_slot_refuses_what_is_no_endomorphism_of_the_slot():
    with pytest.raises(CompositionError, match="no inner box 2"):
        precompose_slot(pipe(), 2, identity_wiring(B))
    with pytest.raises(CompositionError,
                       match="not an endomorphism of inner box 1 'c'"):
        precompose_slot(pipe(), 1, identity_wiring(B))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

# The constructor normalizes: each property below holds between raw maps,
# taken as written by ``Wiring._built``, and the wiring built from them.

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_normalize_preserves_evaluation(seed):
    raw, _ = random_raw_network(_seeded(seed))
    assert eval_equal(rebuilt(raw), raw)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_normalize_idempotent(seed):
    w = rebuilt(random_raw_network(_seeded(seed))[0])
    again = rebuilt(w)
    assert again == w
    assert list(again.in_map) == list(w.in_map)
    assert list(again.out_map) == list(w.out_map)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_wiring_equal_matches_eval_equal(seed):
    rng = _seeded(seed)
    w, _ = random_network(rng)
    v, _ = random_network(_seeded(seed + 1))
    if (w.inner, w.outer) != (v.inner, v.outer):
        return
    assert (w == v) == eval_equal(w, v)


def test_normalize_drops_dead_dependency():
    # table ignores its second source entirely
    t = Table((OuterIn(0, "x"), OuterIn(0, "y")),
              ((("0", "0"), "0"), (("0", "1"), "0"),
               (("1", "0"), "1"), (("1", "1"), "1")))
    w = Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): t, (0, "y"): OuterIn(0, "y")},
               {(0, "o"): InnerOut(0, "o")})
    assert w.in_map[(0, "x")] == OuterIn(0, "x")


def test_normalize_collapses_constant_table():
    t = Table((OuterIn(0, "x"),), ((("0",), "1"), (("1",), "1")))
    w = Wiring((B,), (Box("o", B.in_ports, B.out_ports),),
               {(0, "x"): t, (0, "y"): OuterIn(0, "y")},
               {(0, "o"): InnerOut(0, "o")})
    assert w.in_map[(0, "x")] == Const("1")


def test_double_swap_normalizes_to_identity():
    swap = Wiring((B,), (B,),
                  {(0, "x"): OuterIn(0, "y"), (0, "y"): OuterIn(0, "x")},
                  {(0, "o"): InnerOut(0, "o")})
    assert compose(swap, swap) == identity_wiring(B)


def test_a_reference_on_a_one_symbol_port_normalizes_to_const():
    w = pinned()

    def one_row(expr):
        if isinstance(expr, Const):
            return expr
        return Table((expr,), (((("1",), "1"),)))

    # the same as minimising each reference as a table
    tabled = Wiring._built(w.inner, w.outer,
                           {k: one_row(e) for k, e in w.in_map.items()},
                           {k: one_row(e) for k, e in w.out_map.items()})
    for raw in (w, tabled):
        n = rebuilt(raw)
        assert n.in_map[(0, "x")] == n.in_map[(0, "y")] == Const("1")
        assert n.out_map[(0, "h")] == Const("1")
        assert eval_equal(n, raw)


def test_const_and_multi_symbol_references_normalize_to_themselves():
    w = pinned()
    for expr in (Const("0"), Const("1"), InnerOut(0, "o")):
        in_map = dict(w.in_map)
        in_map[(0, "y")] = expr
        n = Wiring(w.inner, w.outer, in_map, w.out_map)
        assert n.in_map[(0, "y")] == expr
    # pipe's maps, as written, are their own normal form
    assert pipe().in_map == {(0, "x"): OuterIn(0, "x"), (0, "y"): OuterIn(0, "y"),
                             (1, "u"): InnerOut(0, "o")}


def test_normalize_is_idempotent_on_a_one_symbol_port():
    n = rebuilt(pinned())
    assert n.in_map != pinned().in_map
    assert rebuilt(n) == n


def test_canonical_text_is_stable():
    assert wiring_text(pipe()) == wiring_text(pipe())
    assert wiring_text(pipe()) != wiring_text(identity_wiring(B))


def test_wirings_on_different_boundaries_are_not_equal():
    assert identity_wiring(B) != identity_wiring(C)
    assert pipe() != tensor((identity_wiring(B), identity_wiring(C)))
