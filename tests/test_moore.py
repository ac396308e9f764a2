"""Machines, their validation, the wiring action, and machine morphisms."""

import collections
import gc
import itertools
import operator
import random
import sys
import threading
import tracemalloc
import weakref
from collections import ChainMap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import (BIT, random_box, random_machine, random_network,
                    random_stack, random_word, relabelling)
from wirebox import moore
from wirebox.attacks import (AttackScript, CompositeSystem, RewriteStep,
                             apply_script, attack_diff)
from wirebox.fileformat import dump_machine
from wirebox.fingerprints import machine_text
from wirebox.moore import (MachineError, MachineHom, MooreMachine,
                           apply_algebra, compose_homs, hom_violations,
                           identity_hom, lift_hom, render_state, run,
                           validate_machine)
from wirebox.oracle import bisimilar, route, stagewise_simulate
from wirebox.probes import (EXACT, KnowledgeBase, MachineOracle, StateSet,
                            Test, TraceSet, compare_outcomes, run_test,
                            yoneda_filter)
from wirebox.wiring import (Box, Const, InnerOut, OuterIn, Port, Table,
                            Wiring, compose, identity_wiring, input_space)

CELL = Box("cell", (Port("a", BIT),), (Port("q", BIT),))


def delay(init: str = "0") -> MooreMachine:
    update = {(s, (a,)): a for s in BIT for a in BIT}
    return MooreMachine(CELL, BIT, init, update, {s: (s,) for s in BIT})


def history() -> MooreMachine:
    # remembers two steps; collapsing to the newest bit is a morphism
    states = tuple(a + b for a in BIT for b in BIT)
    update = {(s, (a,)): s[1] + a for s in states for a in BIT}
    return MooreMachine(CELL, states, "00", update,
                        {s: (s[1],) for s in states})


def step(m: MooreMachine, s, x) -> tuple:
    """One transition: (next state, output read before stepping); a state
    or input from outside the machine raises the MachineError ``run``
    raises."""
    x = tuple(x)
    try:
        return m.update[(s, x)], m.readout[s]
    except KeyError:
        raise moore._missing_row(m, s, (x,)) from None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_run_names_a_missing_row_as_step_does():
    # a machine is total, so only the caller's data can miss a row: the
    # word's third input is outside the input space, and step may be
    # given a state outside the machine
    m = delay()
    word = [("0",), ("1",), ("2",), ("0",)]
    with pytest.raises(MachineError) as ran:
        run(m, word)
    with pytest.raises(MachineError) as stepped:
        step(m, "1", word[2])
    assert str(ran.value) == str(stepped.value) == \
        "no update for state 1 on input ('2',)"
    with pytest.raises(MachineError, match="^no readout for state 9$"):
        step(m, "9", ("0",))


def test_missing_update_row_is_an_error():
    m = delay()
    update = dict(m.update)
    del update[("0", ("1",))]
    with pytest.raises(MachineError,
                       match=r"^update missing for state 0 on input \('1',\)$"):
        MooreMachine(CELL, BIT, "0", update, dict(m.readout))


def test_readout_outside_alphabet_is_an_error():
    m = delay()
    readout = dict(m.readout, **{"1": ("7",)})
    with pytest.raises(MachineError, match="^readout of 1 puts '7' on port q "
                                           "outside its alphabet$"):
        MooreMachine(CELL, BIT, "0", m.update, readout)


def test_valid_machine_reports_clean():
    assert validate_machine(delay()) == ()


def with_rows(update=(), readout=(), drop=()):
    """The tables of ``delay()`` with rows added and keys dropped."""
    d = delay()
    update = {k: v for k, v in {**d.update, **dict(update)}.items()
              if k not in drop}
    readout = {k: v for k, v in {**d.readout, **dict(readout)}.items()
               if k not in drop}
    return update, readout


@pytest.mark.parametrize("states, init, tables, message", [
    (("0", "1", "0"), "0", with_rows(), "machine repeats a state"),
    (BIT, "9", with_rows(), "initial state 9 is not a state"),
    (BIT, "0", with_rows(drop=["1"]), "readout missing for state 1"),
    (BIT, "0", with_rows(readout={"0": ("0", "0")}),
     "readout of 0 has 2 values for 1 output ports"),
    (BIT, "0", with_rows(readout={"1": ("2",)}),
     "readout of 1 puts '2' on port q outside its alphabet"),
    (BIT, "0", with_rows(drop=[("0", ("1",))]),
     "update missing for state 0 on input ('1',)"),
    (BIT, "0", with_rows(update={("1", ("1",)): "2"}),
     "update of 1 on ('1',) leaves the state set"),
    (BIT, "0", with_rows(update={("9", ("0",)): "0"}),
     "update table keys unknown state 9"),
    (BIT, "0", with_rows(update={("0", ("2",)): "0"}),
     "update table keys state 0 with a tuple ('2',) outside the input space"),
    (BIT, "0", with_rows(readout={"9": ("0",)}),
     "readout table keys unknown state 9"),
], ids=["repeated", "init", "no-readout", "readout-length", "readout-alphabet",
        "no-update", "update-escapes", "update-state", "update-input",
        "readout-state"])
def test_a_machine_is_refused_when_built_with_its_first_violation(
        states, init, tables, message):
    # every error the constructor refuses, each the first of its machine
    update, readout = tables
    with pytest.raises(MachineError) as e:
        MooreMachine(CELL, states, init, update, readout)
    assert str(e.value) == message


@pytest.mark.parametrize("tables, message", [
    (with_rows(drop=["1"]), "readout missing for state 1"),
    (with_rows(drop=[("1", ("0",))]), "update missing for state 1 on input ('0',)"),
], ids=["readout", "update"])
def test_a_machine_lacking_a_row_never_reaches_a_morphism(tables, message):
    # hom_violations reads both machines' rows directly: a machine lacking
    # one is refused when built, with a MachineError, not a KeyError later
    with pytest.raises(MachineError) as e:
        MachineHom(MooreMachine(CELL, BIT, "0", *tables), delay(), IDENTITY)
    assert str(e.value) == message


def test_unreachable_state_is_only_a_warning():
    states = ("0", "1", "island")
    update = {(s, (a,)): a for s in states for a in BIT}
    readout = {s: ("0",) if s == "island" else (s,) for s in states}
    assert validate_machine(MooreMachine(CELL, states, "0", update, readout)) \
        == ("state island is unreachable",)


def test_machine_equality_is_structural():
    assert delay() == delay()
    assert delay() != delay("1")


def test_render_state_flattens_tuples():
    assert render_state(("a", ("b", "c"))) == "(a,(b,c))"
    assert render_state("plain") == "plain"
    assert render_state(()) == "()"
    assert render_state((("x",), "y")) == "((x),y)"
    assert render_state(("a", "b")) == "(a,b)"


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_reads_output_before_moving():
    m = delay()
    s, out = step(m, "0", ("1",))
    assert out == ("0",)  # pre-step readout
    assert s == "1"


def test_run_traces_delay_by_one():
    m = delay()
    outs = run(m, (("1",), ("0",), ("1",)))
    assert outs == [("0",), ("1",), ("0",)]


def test_run_rejects_bad_symbol():
    with pytest.raises(MachineError):
        run(delay(), (("2",),))


# ---------------------------------------------------------------------------
# the wiring action
# ---------------------------------------------------------------------------

def chain() -> Wiring:
    outer = Box("two", CELL.in_ports, CELL.out_ports)
    return Wiring((CELL, CELL), (outer,),
                  {(0, "a"): OuterIn(0, "a"), (1, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(1, "q")})


def test_chained_delays_delay_twice():
    m = apply_algebra(chain(), (delay(), delay()))
    assert m.init == ("0", "0")
    outs = run(m, (("1",), ("0",), ("0",), ("0",)))
    assert outs == [("0",), ("0",), ("1",), ("0",)]


def test_self_feedback_runs_on_readout():
    # a cell fed its own previous output toggles nothing: q stays put
    loop = Wiring((CELL,), (Box("hull", (), CELL.out_ports),),
                  {(0, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(0, "q")})
    m = apply_algebra(loop, (delay("1"),))
    outs = run(m, ((), (), ()))
    assert outs == [("1",), ("1",), ("1",)]


def hull() -> Wiring:
    # one cell fed its own previous output, no outer input
    return Wiring((CELL,), (Box("hull", (), CELL.out_ports),),
                  {(0, "a"): InnerOut(0, "q")},
                  {(0, "q"): InnerOut(0, "q")})


def eager_apply_algebra(w: Wiring, machines) -> MooreMachine:
    """Every row of the composite, routed state by state in product order.

    The reference for the composite's tables: the whole product is built
    at once, into plain dicts, with one ``oracle.route`` of the wiring per
    state and outer input.
    """
    outer = w.outer[0]
    slots = list(itertools.pairwise(itertools.accumulate(
        (len(m.box.in_ports) for m in machines), initial=0)))
    states = [tuple(t) for t in itertools.product(*[m.states for m in machines])]
    update, readout = {}, {}
    for s in states:
        inner_outs = tuple(v for m, si in zip(machines, s) for v in m.readout[si])
        for x in input_space([outer]):
            ins, readout[s] = route(w, inner_outs, x)
            update[(s, x)] = tuple(m.update[(si, ins[a:b])] for m, si, (a, b)
                                   in zip(machines, s, slots))
    return MooreMachine(outer, tuple(states),
                        tuple(m.init for m in machines), update, readout)


def reachable(m: MooreMachine) -> set:
    seen, frontier = {m.init}, [m.init]
    while frontier:
        s = frontier.pop()
        for x in m.inputs():
            t = m.update[(s, x)]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_composite_rows_agree_with_the_eager_reference(seed):
    rng = random.Random(seed)
    w, machines = random_network(rng)
    want = eager_apply_algebra(w, machines)
    m = apply_algebra(w, machines)
    assert (m.states, m.init) == (want.states, want.init)
    # the lazy product is the eager tuple, read every way
    states = m.states
    assert list(states) == list(want.states) and len(states) == len(want.states)
    assert states == want.states and want.states == states
    assert not states != want.states and not want.states != states
    assert (hash(states), repr(states)) == (hash(want.states), repr(want.states))
    for k in range(-len(states), len(states)):
        assert states[k] == want.states[k]
    for k in (len(states), -len(states) - 1):
        with pytest.raises(IndexError):
            states[k]
    assert all(s in states for s in want.states)
    for s in (want.init[:-1], want.init + want.init[:1],
              ("s9",) + want.init[1:], want.init[0], list(want.init), None):
        assert s not in states
    # built: the rows of the states reachable from init, and no others
    assert set(dict.keys(m.readout)) == reachable(want)
    inputs = m.inputs()
    for _ in range(8):
        s, x = rng.choice(want.states), rng.choice(inputs)
        assert m.update[(s, x)] == want.update[(s, x)]
        s, x = rng.choice(want.states), rng.choice(inputs)
        assert (s, x) in m.update and m.update.get((s, x)) == want.update[(s, x)]
        s = rng.choice(want.states)
        assert m.readout.get(s) == want.readout[s]
        s = rng.choice(want.states)
        assert s in m.readout and m.readout[s] == want.readout[s]
    assert ("s9", inputs[0]) not in m.update and m.readout.get("s9") is None
    with pytest.raises(KeyError):
        m.update[(want.init, ("2",) * len(inputs[0]))]
    assert m == want
    # fully routed by the comparison, the tables miss what they lack as a
    # plain dict does
    bad = inputs[0] + ("2",)
    assert ("s9", inputs[0]) not in m.update and m.readout.get("s9") is None
    assert (want.init, bad) not in m.update and m.update.get((want.init, bad)) is None
    with pytest.raises(KeyError):
        m.update[(want.init, bad)]
    with pytest.raises(MachineError, match="no update for state"):
        step(m, want.init, bad)
    with pytest.raises(MachineError, match="no readout for state s9"):
        step(m, "s9", inputs[0])
    assert list(m.update) == list(want.update)
    assert list(m.readout.items()) == list(want.readout.items())
    assert machine_text(m) == machine_text(want)
    # reading the items of a fresh composite gives the same order
    fresh = apply_algebra(w, machines)
    assert list(fresh.update.items()) == list(want.update.items())
    assert len(fresh.readout) == len(want.readout)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_composite_tables_list_keys_without_routing_and_read_as_the_eager_ones(seed):
    w, machines = random_network(random.Random(seed))
    want = eager_apply_algebra(w, machines)
    m = apply_algebra(w, machines)
    built = (dict.copy(m.update), dict.copy(m.readout))
    assert (len(m.update), len(m.readout)) == (len(want.update), len(want.readout))
    assert list(m.update) == list(want.update)
    assert list(m.readout) == list(want.readout)
    assert (dict.copy(m.update), dict.copy(m.readout)) == built
    # reading the values routes the rest, listed in product order
    assert repr(m) == repr(want)
    fresh = apply_algebra(w, machines)
    assert fresh.update == want.update and want.update == fresh.update
    fresh = apply_algebra(w, machines)
    assert want.readout == fresh.readout and fresh.readout == want.readout
    assert not (fresh.readout != want.readout or want.readout != fresh.readout)


def test_a_composite_table_misses_like_a_dict():
    m = apply_algebra(hull(), (delay("1"),))
    assert len(m.update) == 2 and len(m.readout) == 2  # sized from the product
    assert (("1",), ("0",)) not in m.update and ("2",) not in m.readout
    assert m.update.get((("1",), ("0",))) is None and m.readout.get("1") is None
    with pytest.raises(KeyError):
        m.update[(("1",), ("0",))]
    with pytest.raises(KeyError):
        m.readout[("2",)]
    with pytest.raises(MachineError, match="no update for state"):
        step(m, ("1",), ("0",))
    with pytest.raises(MachineError, match="no readout for state"):
        step(m, ("2",), ())
    assert run(m, ((), ())) == [("1",), ("1",)]


# dict's methods, by what a composite table does with them: the ones a
# read-only Mapping has answer over the whole product; every other one,
# called as below, raises TypeError; the rest make or describe the object
WHOLE_PRODUCT = {"__getitem__", "__iter__", "__len__", "__contains__", "get",
                 "keys", "items", "values", "__eq__", "__ne__", "__repr__"}
REFUSED = {
    "__setitem__": lambda t, k, v: t.__setitem__(k, v),
    "__delitem__": lambda t, k, v: t.__delitem__(k),
    "setdefault": lambda t, k, v: t.setdefault(k, v),
    "update": lambda t, k, v: t.update({k: v}),
    "pop": lambda t, k, v: t.pop(k),
    "popitem": lambda t, k, v: t.popitem(),
    "clear": lambda t, k, v: t.clear(),
    "copy": lambda t, k, v: t.copy(),
    "fromkeys": lambda t, k, v: t.fromkeys([k]),
    "__or__": lambda t, k, v: t | {k: v},
    "__ror__": lambda t, k, v: {k: v} | t,
    "__ior__": lambda t, k, v: operator.ior(t, {k: v}),
    "__reversed__": lambda t, k, v: reversed(t),
    "__hash__": lambda t, k, v: hash(t),
    "__lt__": lambda t, k, v: t < {k: v},
    "__le__": lambda t, k, v: t <= {k: v},
    "__gt__": lambda t, k, v: t > {k: v},
    "__ge__": lambda t, k, v: t >= {k: v},
}
OBJECT_MACHINERY = {"__new__", "__init__", "__getattribute__", "__sizeof__",
                    "__doc__", "__class_getitem__"}


def test_composite_tables_answer_dict_methods_whole_or_refuse_them():
    # a method a newer Python adds to dict fails here until it is sorted
    assert set(vars(dict)) == WHOLE_PRODUCT | REFUSED.keys() | OBJECT_MACHINERY
    w, machines = history_row(3)  # 64 states, 16 reachable from init
    want = eager_apply_algebra(w, machines)
    for name in ("update", "readout"):
        eager = getattr(want, name)

        def fresh():
            # a new composite for each reader, holding the reachable rows only
            table = getattr(apply_algebra(w, machines), name)
            assert dict.__len__(table) < len(eager)
            return table

        assert type(fresh()).__getitem__ is dict.__getitem__
        assert [fresh()[k] for k in eager] == list(eager.values())
        assert list(fresh()) == list(eager) and len(fresh()) == len(eager)
        assert all(k in fresh() for k in eager)
        assert [fresh().get(k) for k in eager] == list(eager.values())
        assert list(fresh().keys()) == list(eager.keys())
        assert list(fresh().items()) == list(eager.items())
        assert list(fresh().values()) == list(eager.values())
        assert fresh() == eager and eager == fresh()
        assert not (fresh() != eager or eager != fresh())
        assert fresh() != {} and {} != fresh()
        assert repr(fresh()) == repr(eager)
        # dict's own fast paths copy through keys() and lookups
        assert dict(fresh()) == eager and {**fresh()} == eager
        key, value = next(iter(eager.items()))
        for method, call in REFUSED.items():
            table = fresh()
            routed = dict.copy(table)
            with pytest.raises(TypeError):
                call(table, key, value)
            assert dict.copy(table) == routed, method


def test_an_input_outside_the_input_space_misses_in_both_tables():
    # s is in the product and not reachable from init: a miss on an input
    # outside the input space routes nothing and finds no row for the key
    m = apply_algebra(*history_row(3))
    s = next(s for s in m.states if s not in dict.keys(m.readout))
    for bad in (("2",), ("0", "0"), ()):
        for table in (m.update, m.readout):
            assert (s, bad) not in table and table.get((s, bad)) is None
            with pytest.raises(KeyError):
                table[(s, bad)]
    assert (s, ("1",)) not in dict.keys(m.update)
    assert s not in dict.keys(m.readout)


def test_an_update_miss_routes_only_a_key_of_the_product(monkeypatch):
    m = apply_algebra(*history_row(3))
    s = next(s for s in m.states if s not in dict.keys(m.readout))
    fills = []
    fill = moore._Router.fill
    monkeypatch.setattr(moore._Router, "fill",
                        lambda *args: fills.append(args[1]) or fill(*args))
    for _ in range(3):
        assert m.update.get((s, ("2",))) is None
    assert fills == []
    # a valid lookup routes the state once, storing both of its rows:
    # each cell shifts in the newest bit of the cell before it
    for x in BIT:
        assert m.update[(s, (x,))] == (s[0][1] + x, s[1][1] + s[0][1],
                                       s[2][1] + s[1][1])
    assert fills == [s]


def test_a_readout_lookup_routes_the_whole_state():
    # ('0',) is not reachable from the hull's init ('1',), so the first
    # lookup of its readout routes it, update rows included
    m = apply_algebra(hull(), (delay("1"),))
    assert ("0",) not in dict.keys(m.readout)
    assert m.readout[("0",)] == ("0",)
    assert dict.get(m.update, (("0",), ())) == ("0",)


def test_a_dead_composite_is_freed_by_refcounting():
    # the hull's init ('1',) only reaches itself; ('0',) is routed on lookup
    machines = (delay("1"),)
    gc.collect()
    gc.disable()
    try:
        m = apply_algebra(hull(), machines)
        assert m.update[(("0",), ())] == ("0",)
        ref = weakref.ref(m)
        del m
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_share_a_composite_while_one_lists_its_keys():
    # cells fed a constant stay at init, so 255 of the 256 states are
    # routed by the threads' lookups, which go on while one thread lists
    # the table's keys; rows stored by the lookups must neither change
    # the product order of that listing nor give a wrong row
    n = 4
    w = Wiring((CELL,) * n, (Box("quiet", (), CELL.out_ports),),
               {(i, "a"): Const("0") for i in range(n)},
               {(0, "q"): InnerOut(n - 1, "q")})
    machines = (history(),) * n
    want = eager_apply_algebra(w, machines)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(100):
            m = apply_algebra(w, machines)
            wrong = []
            listed = threading.Event()

            def look(seed):
                keys = list(want.update)
                random.Random(seed).shuffle(keys)
                while not listed.is_set():
                    wrong.extend(k for k in keys
                                 if m.update.get(k) != want.update[k])

            def list_keys():
                if list(m.update) != list(want.update):
                    wrong.append("order")
                listed.set()

            threads = [threading.Thread(target=look, args=(k,))
                       for k in range(3)]
            threads.append(threading.Thread(target=list_keys))
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert wrong == []
            assert m == want and list(m.update) == list(want.update)
    finally:
        sys.setswitchinterval(interval)


def test_apply_algebra_names_a_missing_update_row():
    # a component lacking an update row is refused when it is built, with
    # the row named, so apply_algebra only ever routes total components
    d = delay()
    update = {k: v for k, v in d.update.items() if k != ("1", ("0",))}
    with pytest.raises(MachineError,
                       match=r"^update missing for state 1 on input \('0',\)$"):
        MooreMachine(CELL, BIT, "0", update, d.readout)
    assert apply_algebra(chain(), (delay(), delay())).init == ("0", "0")


def test_apply_algebra_names_an_off_alphabet_readout():
    # an off-alphabet readout is refused when the component is built, so
    # no composite puts the value on an inner output
    with pytest.raises(MachineError, match="^readout of 1 puts '2' on port q "
                                           "outside its alphabet$"):
        MooreMachine(CELL, BIT, "0", delay().update,
                     {"0": ("0",), "1": ("2",)})


def test_apply_algebra_checks_box_fit():
    with pytest.raises(MachineError):
        apply_algebra(chain(), (delay(),))


def history_row(n: int) -> tuple[Wiring, tuple[MooreMachine, ...]]:
    """n four-state components in a row: 4**n states x 2 inputs, of which
    the 2**(n + 1) holding the last n + 1 inputs are reachable from init."""
    in_map = {(0, "a"): OuterIn(0, "a")}
    in_map.update({(i, "a"): InnerOut(i - 1, "q") for i in range(1, n)})
    w = Wiring((CELL,) * n, (Box("row", CELL.in_ports, CELL.out_ports),),
               in_map, {(0, "q"): InnerOut(n - 1, "q")})
    return w, (history(),) * n


def test_whole_product_readers_refuse_a_product_over_the_limit():
    n = 10
    w, machines = history_row(n)
    m = apply_algebra(w, machines)
    word = random_word(random.Random(7), m.box, 64)
    assert run(m, word) == stagewise_simulate(w, machines, word)
    assert (len(m.states), len(m.update), len(m.readout)) == \
        (4 ** 10, 2 * 4 ** 10, 4 ** 10)
    assert m.states[-1] == ("11",) * n and ("01",) * n in m.states
    limit = (r"1048576 states x 2 inputs = 2097152 transitions, over the "
             r"limit of 1048576")
    # lifting onto two composites is accepted; its state map is the
    # whole-product reader
    other = apply_algebra(w, machines)
    lifted = lift_hom([identity_hom(h) for h in machines], m, other)
    readers = {
        "states": lambda: list(m.states),
        "hash": lambda: hash(m.states),
        "repr": lambda: repr(m),
        "update keys": lambda: list(m.update),
        "readout rows": lambda: dict(m.readout.items()),
        "validate_machine": lambda: validate_machine(m),
        "machine_text": lambda: machine_text(m),
        "dump_machine": lambda: dump_machine("row", m),
        "identity_hom": lambda: identity_hom(m),
        "hom_violations": lambda: hom_violations(MachineHom(m, m, {})),
        "lift_hom": lambda: dict(lifted.state_map),
    }
    tracemalloc.start()
    try:
        for read in readers.values():
            with pytest.raises(MachineError, match=limit):
                read()
        # a state-set test counts the product without walking it
        t = Test("states", StateSet())
        assert compare_outcomes(t, run_test(t, m), run_test(t, other))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each reader is refused before it walks a composite state
    assert peak < 100_000
    # bisimulation refines the reachable part alone, so it answers
    assert bisimilar(m, other)
    flipped = m.update[(m.init, ("1",))]
    readout = ChainMap({flipped: ("0",) if m.readout[flipped] == ("1",)
                        else ("1",)}, m.readout)
    assert not bisimilar(
        m, MooreMachine._built(m.box, m.states, m.init, m.update, readout))


def test_apply_algebra_refuses_a_reachable_part_over_the_limit(monkeypatch):
    # at the real limit the search routes 2**20 transitions before it is
    # refused, as many as a composite it accepts may hold (about 4 s and
    # 300 MB on the twenty-cell row); a limit of 2**12 makes the same
    # refusal small
    monkeypatch.setattr(moore, "MAX_TRANSITIONS", 2 ** 12)
    # the ten-cell row reaches 2**11 states x 2 inputs: exactly the limit
    m = apply_algebra(*history_row(10))
    assert dict.__len__(m.update) == 2 ** 12
    limit = (r"composite reaches at least \d+ states x 2 inputs = \d+ "
             r"transitions, over the limit of 4096")
    with pytest.raises(MachineError, match=limit):
        apply_algebra(*history_row(11))
    w, machines = history_row(20)
    tracemalloc.start()
    try:
        with pytest.raises(MachineError, match=limit):
            apply_algebra(w, machines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the refused search holds at most 4096 routed rows
    assert peak < 2_000_000


def tree_of_32(rng: random.Random):
    """A binary tree of 32 two-state cells under one outer input: 2**32
    product states, of which 67 are reachable from init; every cell a
    delay or an inverter, drawn from ``rng``.  (wiring, cells)"""
    n = 32
    in_map = {(0, "a"): OuterIn(0, "a")}
    in_map.update({(i, "a"): InnerOut((i - 1) // 2, "q") for i in range(1, n)})
    xor = tuple(((a, b), str(int(a != b))) for a in BIT for b in BIT)
    outer = Box("tree", CELL.in_ports, CELL.out_ports)
    w = Wiring((CELL,) * n, (outer,), in_map,
               {(0, "q"): Table((InnerOut(n - 1, "q"), InnerOut(20, "q")), xor)})
    cells = (delay(), MooreMachine(CELL, BIT, "0", delay().update,
                                   {"0": ("1",), "1": ("0",)}))
    return w, tuple(rng.choice(cells) for _ in range(n))


def test_a_network_of_32_components_composes_runs_and_is_learned():
    rng = random.Random(32)
    w, machines = tree_of_32(rng)
    outer = w.outer[0]
    word = random_word(rng, outer, 256)
    tracemalloc.start()
    try:
        m = apply_algebra(w, machines)
        assert len(m.states) == 2 ** 32 > 2 ** 30
        assert run(m, word) == stagewise_simulate(w, machines, word)
        kb = KnowledgeBase(outer, (("tree", apply_algebra(w, machines)),
                                   ("delay", MooreMachine(outer, BIT, "0",
                                                          delay().update,
                                                          delay().readout))))
        battery = (Test("traces-6", TraceSet(6)), Test("states", StateSet()))
        result = yoneda_filter(kb, battery, MachineOracle(m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.candidates, result.classification) == (("tree",), EXACT)
    assert ("delay", "states", False) in result.matrix
    assert peak < 1_000_000


def test_a_morphism_rewrite_and_its_diff_run_on_the_32_cell_tree():
    # the lifted morphism maps a composite state on lookup, so a morphism
    # rewrite and its diff cost the 67 reachable states of each
    # composite, and the witness reads the composites the diff built
    w, machines = tree_of_32(random.Random(32))
    system = CompositeSystem(w, machines)
    identity = identity_hom(machines[7])
    script = AttackScript((RewriteStep(7, identity.target, identity.state_map),))
    tracemalloc.start()
    try:
        result = apply_script(system, script)
        report = attack_diff(system, result.system, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.equivalent and report.witness is None
    (witness,) = result.witnesses
    assert witness.source is system.composite()
    assert witness.target is result.system.composite()
    s = witness.source.update[(witness.source.init, ("1",))]
    assert witness.state_map[s] == s and len(witness.state_map) == 2 ** 32
    with pytest.raises(MachineError, match="would have 4294967296 states"):
        dict(witness.state_map)
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# the numbering of the reachable part
# ---------------------------------------------------------------------------

def reference_numbering(m: MooreMachine) -> tuple[list, list, list]:
    """The reachable states in breadth-first order from init, successors
    in ``input_space`` order, the successor numbers state by state and
    the readouts, by table lookups: the reference for ``_numbered``."""
    inputs = input_space([m.box])
    order, number = [m.init], {m.init: 0}
    queue = collections.deque(order)
    while queue:
        s = queue.popleft()
        for x in inputs:
            t = m.update[(s, x)]
            if t not in number:
                number[t] = len(order)
                order.append(t)
                queue.append(t)
    return (order, [number[m.update[(s, x)]] for s in order for x in inputs],
            [m.readout[s] for s in order])


def numbered_system(rng: random.Random, kind: int):
    """(wiring, machines, machine): a netgen composite, a history row, a
    32-cell tree, or a plain netgen machine under its identity wiring."""
    if kind == 0:
        w, machines = random_network(rng)
    elif kind == 1:
        w, machines = history_row(rng.randint(1, 6))
    elif kind == 2:
        w, machines = tree_of_32(rng)
    else:
        m = random_machine(rng, random_box(rng, "plain"))
        return identity_wiring(m.box), (m,), m
    return w, machines, apply_algebra(w, machines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_the_numbering_is_breadth_first_and_run_walks_it(seed, kind):
    rng = random.Random(seed)
    w, machines, m = numbered_system(rng, kind)
    num = moore._numbered(m)
    assert moore._numbered(m) is num
    assert (num.states, num.succ, num.readouts) == reference_numbering(m)
    assert num.index == {s: k for k, s in enumerate(num.states)}
    assert num.column == {x: j for j, x in enumerate(input_space([m.box]))}
    word = random_word(rng, m.box, rng.randint(0, 40))
    want = stagewise_simulate(w, machines, word)
    assert run(m, word) == run(m, [list(x) for x in word]) == want
    # an input outside the input space, at any step, raises the text a
    # lookup of its update row would: the state reached, and the input
    bad = rng.choice([("2",) * len(m.box.in_ports), (), ("0",) * 3])
    at = rng.randint(0, len(word))
    reached = num.states[0]
    for x in word[:at]:
        reached = m.update[(reached, x)]
    text = f"no update for state {render_state(reached)} on input {bad}"
    for spelled in (bad, list(bad)):
        with pytest.raises(MachineError) as raised:
            run(m, word[:at] + (spelled,) + word[at:])
        assert str(raised.value) == text


def test_the_numbering_of_a_large_composite_keeps_little_beyond_its_rows():
    # the 15-cell row reaches 2**16 states x 2 inputs; on CPython 3.11 its
    # routed rows and product alone hold 39.3 MB, and the numbering adds
    # at most a fifth of that (a list per state's successors added 30%)
    w, machines = history_row(15)
    tracemalloc.start()
    try:
        m = apply_algebra(w, machines)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(moore._numbered(m).states) == 2 ** 16
    assert kept < 1.2 * 39_300_000


def test_apply_algebra_requires_single_outer():
    from wirebox.wiring import tensor
    w = tensor((identity_wiring(CELL), identity_wiring(CELL)))
    with pytest.raises(MachineError):
        apply_algebra(w, (delay(), delay()))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_identity_wiring_preserves_behavior(seed):
    rng = random.Random(seed)
    w, machines = random_network(rng)
    m = machines[0]
    lifted = apply_algebra(identity_wiring(m.box), [m])
    word = [rng.choice(input_space([m.box])) for _ in range(5)]
    assert run(lifted, word) == run(m, word)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def collapse() -> MachineHom:
    return MachineHom(history(), delay(), {s: s[1] for s in history().states})


def inverted() -> MooreMachine:
    return MooreMachine(CELL, BIT, "0", delay().update,
                        {"0": ("1",), "1": ("0",)})


def sticky() -> MooreMachine:
    return MooreMachine(CELL, BIT, "0",
                        {(s, (a,)): s for s in BIT for a in BIT},
                        {s: (s,) for s in BIT})


IDENTITY = {"0": "0", "1": "1"}


def test_collapse_is_a_morphism():
    assert hom_violations(collapse()) == []


def test_hom_must_send_init_to_init():
    with pytest.raises(MachineError, match="init"):
        MachineHom(delay(), delay("1"), IDENTITY)


def test_hom_must_preserve_readout():
    with pytest.raises(MachineError, match="readout"):
        MachineHom(delay(), inverted(), IDENTITY)


def test_hom_must_commute_with_update():
    # the identity map breaks the update square though readouts line up
    with pytest.raises(MachineError, match="update"):
        MachineHom(delay(), sticky(), IDENTITY)


@pytest.mark.parametrize("source, target, state_map, message", [
    (delay(), MooreMachine(Box("other", CELL.in_ports, CELL.out_ports), BIT,
                           "0", delay().update, delay().readout),
     IDENTITY,
     "source and target inhabit different boxes: box 'cell' vs 'other'"),
    # a box of the same name is told apart by where it differs
    (delay(), MooreMachine(Box("cell", CELL.in_ports, (Port("r", BIT),)), BIT,
                           "0", delay().update, delay().readout),
     IDENTITY, "source and target inhabit different boxes: output port 'q' "
     "vs 'r' on box 'cell'"),
    (delay(), delay(), {"0": "0"}, "state map misses 1"),
    (delay(), delay(), {"0": "0", "1": "2"},
     "state map sends 1 outside the target states"),
    (delay(), delay("1"), IDENTITY, "initial state is not preserved"),
    (delay(), inverted(), IDENTITY, "readout differs at 0"),
    (delay(), sticky(), IDENTITY,
     "update square fails at state 0 on input ('1',): map-then-step gives 0, "
     "step-then-map gives 1"),
], ids=["box", "namesake-box", "misses", "outside", "init", "readout",
         "update"])
def test_a_hom_is_refused_when_built_with_its_first_violation(
        source, target, state_map, message):
    with pytest.raises(MachineError) as e:
        MachineHom(source, target, state_map)
    assert str(e.value) == message


def test_identity_and_composition_of_homs():
    h = collapse()
    assert hom_violations(identity_hom(history())) == []
    both = compose_homs(h, identity_hom(history()))
    assert both.state_map == h.state_map
    with pytest.raises(MachineError):
        compose_homs(h, h)  # endpoints do not chain


def test_lift_hom_acts_componentwise():
    w = chain()
    source = apply_algebra(w, (history(), delay()))
    target = apply_algebra(w, (delay(), delay()))
    lifted = lift_hom((collapse(), identity_hom(delay())), source, target)
    assert (lifted.source, lifted.target) == (source, target)
    assert hom_violations(lifted) == []
    assert lifted.state_map[("10", "1")] == ("0", "1")


def test_lift_hom_rejects_invalid_component():
    # an invalid component is refused when it is built, so lift_hom never
    # meets one; nor a list that does not fit the wiring, since
    # apply_algebra refuses it when the caller builds the composites
    with pytest.raises(MachineError, match="init"):
        MachineHom(delay(), delay("1"), IDENTITY)
    with pytest.raises(MachineError, match="2 inner boxes but 1 machines"):
        apply_algebra(chain(), (delay(),))


def hom_results(rng):
    # every kind of morphism the library builds unchecked, from one seeded
    # network whose components get identity or relabelling morphisms
    w, machines = random_network(rng)
    homs, backs = [], []
    for m in machines:
        copy, name = relabelling(rng, m)
        there = MachineHom(m, copy, name)
        back = MachineHom(copy, m, {v: s for s, v in name.items()})
        if rng.random() < 0.5:
            there, back = identity_hom(m), identity_hom(m)
        homs.append(there)
        backs.append(back)
    sources = apply_algebra(w, [h.source for h in homs])
    targets = apply_algebra(w, [h.target for h in homs])
    lifted = lift_hom(homs, sources, targets)
    lifted_back = lift_hom(backs, targets, sources)
    k = rng.randrange(len(machines))
    (rewritten,) = apply_script(CompositeSystem(w, machines), AttackScript(
        (RewriteStep(k, homs[k].target, homs[k].state_map),))).witnesses
    return ([identity_hom(m) for m in machines]
            + [identity_hom(lifted.source)]
            + [compose_homs(b, h) for h, b in zip(homs, backs)]
            + [compose_homs(h, identity_hom(h.source)) for h in homs]
            + [lifted, lifted_back, compose_homs(lifted_back, lifted),
               rewritten])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_hom_results_pass_the_validating_constructor(seed):
    # identity_hom, compose_homs and lift_hom skip the check on what they
    # build; the public constructor is the slow reference they must agree with
    for h in hom_results(random.Random(seed)):
        checked = MachineHom(h.source, h.target, h.state_map)
        assert checked == h
        if isinstance(h.state_map, dict):
            continue
        # a lifted map: read-only, mapping on lookup exactly the keys and
        # values of the checked copy, a plain dict
        lazy, eager = h.state_map, checked.state_map
        assert type(eager) is dict
        assert len(lazy) == len(eager) and list(lazy) == list(eager)
        assert all(lazy[s] == t and s in lazy for s, t in eager.items())
        assert repr(lazy) == repr(eager)
        for key in (("x",) * len(h.source.init), "x", (), None):
            assert key not in lazy and lazy.get(key) is None
            with pytest.raises(KeyError):
                lazy[key]
        with pytest.raises(TypeError):
            lazy[h.source.init] = h.target.init


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 9))
def test_composites_pass_the_checking_constructor(seed):
    # apply_algebra builds its composite unchecked (Record._built);
    # the public constructor is the slow reference it must agree with,
    # both on the composite's own tables and on plain copies of them
    f, g, machines = random_stack(random.Random(seed))
    inner = apply_algebra(f, machines)
    for m in (inner, apply_algebra(g, (inner,)),
              apply_algebra(compose(g, f), machines)):
        assert MooreMachine(m.box, m.states, m.init, m.update, m.readout) == m
        assert MooreMachine(m.box, tuple(m.states), m.init, dict(m.update),
                            dict(m.readout)) == m


def test_canonical_text_distinguishes_machines():
    assert machine_text(delay()) == machine_text(delay())
    assert machine_text(delay()) != machine_text(delay("1"))
