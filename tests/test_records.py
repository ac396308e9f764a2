"""The contract of the library's frozen records.

Every record class, results and documents included, keeps its fields,
in order and with their defaults; equality that checks the class, or
identity for the records that opt out; a hash of the field tuple, which
fails on a record holding a dict or a machine; refused assignment; and
the field-by-field ``repr``.  The tests reach the fields only through
construction, attribute access and ``repr``, so they hold whatever
builds the classes.
"""

import functools
import pathlib

import pytest
import yaml

import uav
from wirebox.attacks import (AttackScript, CompositeSystem, DiffReport,
                             LogEntry, RewireStep, RewriteStep, Scenario,
                             ScenarioScript, ScriptResult, apply_script,
                             attack_diff)
from wirebox.fileformat import (AttackDoc, BatteryDoc, FincatDoc, MachineDoc,
                                ScenarioDoc, SystemDoc, WiringDoc, box_data,
                                collect_boxes, dump_system, load, loads,
                                wiring_data)
from wirebox.fincat import (FinCategory, Morphism, NatTransformation,
                            SetFunctor, YonedaWitness, enumerate_nat,
                            hom_functor, yoneda_check)
from wirebox.moore import MachineHom, MooreMachine, identity_hom
from wirebox.probes import (KnowledgeBase, LearnResult, MachineOracle, Outcome,
                            OutputImage, StateSet, Terminal, Test, TraceSet,
                            run_test, yoneda_filter)
from wirebox.wiring import Box, Const, InnerOut, OuterIn, Port, Table, Wiring

ROOT = pathlib.Path(__file__).resolve().parent.parent

# every record class of the library and its fields, in order
FIELDS = {
    Port: "name alphabet",
    Box: "name in_ports out_ports",
    OuterIn: "box port",
    InnerOut: "box port",
    Const: "symbol",
    Table: "sources entries",
    Wiring: "inner outer in_map out_map",
    MooreMachine: "box states init update readout",
    MachineHom: "source target state_map",
    TraceSet: "depth",
    StateSet: "",
    Terminal: "",
    OutputImage: "step",
    Test: "name kind",
    Outcome: "test value inputs",
    KnowledgeBase: "box entries",
    Morphism: "mid src tgt",
    FinCategory: "name objects morphisms identity composition",
    SetFunctor: "name cat on_objects on_morphisms",
    NatTransformation: "components",
    YonedaWitness: "object functor pairs",
    CompositeSystem: "wiring components",
    RewriteStep: "index machine state_map",
    RewireStep: "index endo",
    AttackScript: "steps",
    LogEntry: "position step before system",
    DiffReport: "equivalent witness depth tests",
    ScenarioScript: "name system script result",
    Scenario: "name systems real attacker_view correspondence knowledge "
              "battery scripts",
    LearnResult: "candidates classification matrix incomplete",
    ScriptResult: "system log",
    MachineDoc: "schema name machine",
    WiringDoc: "schema name wiring boxes",
    SystemDoc: "schema boxes machines wirings systems",
    BatteryDoc: "schema tests",
    AttackDoc: "schema name system script boxes machines wirings",
    ScenarioDoc: "schema boxes machines wirings systems scenario",
    FincatDoc: "schema category functors",
}
# records that compare and hash by identity
IDENTITY = {RewriteStep, RewireStep, Scenario, KnowledgeBase, FinCategory,
            SetFunctor}
# records with a dict or a machine among their fields: equal records
# compare equal, but hashing one fails
UNHASHABLE = {Wiring, MooreMachine, CompositeSystem, MachineHom,
              NatTransformation, LogEntry, ScriptResult, ScenarioScript,
              MachineDoc, WiringDoc, SystemDoc, AttackDoc, ScenarioDoc,
              FincatDoc}


@functools.lru_cache(maxsize=None)
def samples() -> dict:
    """One instance of every record class, built the library's way."""
    uav_dir = ROOT / "fixtures" / "uav"
    scenario_doc = load(uav_dir / "scenario.yaml")
    scenario = scenario_doc.scenario
    system = scenario.systems[scenario.real]
    target = load(uav_dir / "target.yaml")
    wiring_doc = loads(yaml.safe_dump({
        "schema": "wiring.v1", "name": "real",
        "boxes": [box_data(b) for b in collect_boxes(
            system.wiring.inner, system.wiring.outer).values()],
        "wiring": {k: v for k, v in wiring_data("real", system.wiring).items()
                   if k != "name"}}), "real.yaml")
    machine = system.components[0]
    a = OuterIn(0, "a")
    fincat = load(ROOT / "fixtures" / "fincat" / "cyc3.yaml")
    cat = fincat.category
    functor = hom_functor(cat, cat.objects[0])
    view = uav.build_uav_attacker_view()
    attacked = apply_script(view, uav.combo_script())
    trace = Test("traces-2", TraceSet(2))
    return {
        Port: machine.box.in_ports[0],
        Box: machine.box,
        OuterIn: a,
        InnerOut: InnerOut(1, "q"),
        Const: Const("1"),
        Table: Table((a, InnerOut(1, "q")),
                     [(("1", "0"), "1"), (("0", "0"), "0"), (("0", "1"), "1"),
                      (("1", "1"), "0")]),
        Wiring: system.wiring,
        MooreMachine: machine,
        MachineHom: identity_hom(machine),
        TraceSet: TraceSet(3),
        StateSet: StateSet(),
        Terminal: Terminal(),
        OutputImage: OutputImage(2),
        Test: trace,
        Outcome: run_test(trace, machine),
        KnowledgeBase: scenario.kb,
        Morphism: cat.morphisms[0],
        FinCategory: cat,
        SetFunctor: functor,
        NatTransformation: enumerate_nat(functor, functor)[0],
        YonedaWitness: yoneda_check(cat, cat.objects[0], functor),
        CompositeSystem: system,
        RewriteStep: uav.gps_firmware_rewrite(),
        RewireStep: uav.gps_swap_rewiring(),
        AttackScript: scenario.scripts[0].script,
        LogEntry: attacked.log[0],
        DiffReport: attack_diff(view, attacked.system, 3),
        ScenarioScript: scenario.scripts[0],
        Scenario: scenario,
        LearnResult: yoneda_filter(scenario.kb, scenario.battery,
                                   MachineOracle(target.machine)),
        ScriptResult: attacked,
        MachineDoc: target,
        WiringDoc: wiring_doc,
        SystemDoc: loads(dump_system({scenario.real: system}), "system.yaml"),
        BatteryDoc: load(uav_dir / "battery.yaml"),
        AttackDoc: load(uav_dir / "combo-attack.yaml"),
        ScenarioDoc: scenario_doc,
        FincatDoc: fincat,
    }


def names_of(cls) -> list[str]:
    return FIELDS[cls].split()


def values_of(record) -> list:
    return [getattr(record, n) for n in names_of(type(record))]


RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


def test_thirty_eight_records_are_pinned():
    assert len(FIELDS) == 38
    assert IDENTITY | UNHASHABLE <= set(FIELDS)
    assert set(samples()) == set(FIELDS)


@RECORDS
def test_fields_come_in_order_by_position_and_by_keyword(cls):
    record = samples()[cls]
    names, values = names_of(cls), values_of(record)
    want = f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert repr(record) == want
    assert repr(cls(*values)) == want
    assert repr(cls(**dict(zip(names, values)))) == want
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)


def test_defaults_fill_the_trailing_fields():
    machine = samples()[MooreMachine]
    hom = identity_hom(machine)
    assert Outcome("t", ()).inputs == ()
    assert AttackScript().steps == ()
    assert DiffReport(True, None, 3).tests == ()
    assert RewriteStep(0, machine=machine).state_map is None
    assert RewriteStep(0, machine, hom.state_map).state_map is hom.state_map
    for build in (lambda: RewriteStep(0), lambda: Port("a"), lambda: Outcome(),
                  lambda: Test("t"), lambda: DiffReport(True, None),
                  lambda: OuterIn(0, box=1), lambda: LogEntry(0, "k", "d")):
        with pytest.raises(TypeError):
            build()


def test_equality_checks_the_class():
    keys = {OuterIn(0, "a"): 1, InnerOut(0, "a"): 2, Const("a"): 3}
    assert len(keys) == 3
    assert keys[OuterIn(0, "a")] == 1 and keys[InnerOut(0, "a")] == 2
    assert OuterIn(0, "a") != InnerOut(0, "a")
    assert OuterIn(0, "a") == OuterIn(0, "a")
    assert OuterIn(0, "a") != OuterIn(1, "a")
    assert OuterIn(0, "a") != (0, "a")
    assert OuterIn(0, "a").__eq__((0, "a")) is NotImplemented
    assert TraceSet(3) != OutputImage(3)
    assert TraceSet(3) == TraceSet(3) and TraceSet(3) != TraceSet(4)
    assert Terminal() == Terminal() and StateSet() == StateSet()
    assert Terminal() != StateSet()
    assert len({TraceSet(3), OutputImage(3), TraceSet(3)}) == 2


@pytest.mark.parametrize("cls", sorted(IDENTITY, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_some_records_compare_and_hash_by_identity(cls):
    record = samples()[cls]
    twin = cls(*values_of(record))
    assert record == record and twin != record
    assert hash(record) == object.__hash__(record)
    assert len({record, twin, record}) == 2


@RECORDS
def test_equal_records_hash_equal(cls):
    if cls in IDENTITY:
        return
    record = samples()[cls]
    twin = cls(*values_of(record))
    assert twin == record and not twin != record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(values_of(record)))


@RECORDS
def test_assignment_raises(cls):
    record = samples()[cls]
    name = (names_of(cls) or ["anything"])[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, "not_a_field", None)
    if names_of(cls):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_reprs():
    assert repr(Port("a", ("0", "1"))) == "Port(name='a', alphabet=('0', '1'))"
    assert repr(OuterIn(0, "a")) == "OuterIn(box=0, port='a')"
    assert repr(TraceSet(5)) == "TraceSet(depth=5)"
    assert repr(Terminal()) == "Terminal()"
    assert repr(Test("t", TraceSet(2))) == \
        "Test(name='t', kind=TraceSet(depth=2))"
    system = samples()[CompositeSystem]
    step = samples()[RewireStep]
    assert repr(LogEntry(1, step, system, system)) \
        == (f"LogEntry(position=1, step={step!r}, before={system!r}, "
            f"system={system!r})")
