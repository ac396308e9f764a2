"""The system schemas: loading machine.v1, wiring.v1, system.v1,
battery.v1, attack.v1 and scenario.v1 documents.

``fileformat`` parses every document and hands these six schemas here;
the rules are those its docstring states, and every field is read
through its readers.  Each public name here is also a name of
``fileformat``, which imports this module on first use.  Only the
loaders of systems, attack steps and scenarios import ``attacks``, so a
machine, wiring or battery document, or ``load_kb_dir``, loads no attack
code.  The writers are in ``writers``, which no loader imports.
"""

from __future__ import annotations

import os
from contextlib import suppress
from typing import TYPE_CHECKING, Mapping, Optional

from . import Record
from .fileformat import (LoadError, _errors_at, _field, _integer, _list,
                         _mapping, _named, _ref, _row, _rows, _string,
                         _string_map, _symbols, load)
from .moore import MachineError, MooreMachine
from .probes import (KnowledgeBase, OutputImage, StateSet, Terminal, Test,
                     TraceSet)
from .wiring import (Box, Const, InnerOut, OuterIn, Port, SourceExpr, Table,
                     Wiring, compose, identity_wiring, tensor)

if TYPE_CHECKING:
    from .attacks import AttackScript, CompositeSystem, Scenario


def _port_key(v, path: str) -> tuple[int, str]:
    s = _string(v, path)
    head, _, port = s.partition(".")
    with suppress(ValueError):
        if port:
            return int(head), port
    raise LoadError(path, f"expected 'index.port', got {s!r}")


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------

def _load_box(d, path: str) -> tuple[str, Box]:
    d = _row(d, path, ("name", "inputs", "outputs"))
    name = _field(d, "name", path)

    def ports(key: str) -> tuple[Port, ...]:
        return tuple(Port(_field(p, "port", pp), _field(p, "alphabet", pp, _symbols))
                     for p, pp in _field(d, key, path, _rows(("port", "alphabet"))))

    with _errors_at(path):
        return name, Box(name, ports("inputs"), ports("outputs"))


def _load_machine(d, boxes: Mapping[str, Box], path: str) -> tuple[str, MooreMachine]:
    d = _row(d, path, ("name", "box", "states", "init", "update", "readout"))
    name = _field(d, "name", path)
    box = _field(d, "box", path, _ref(boxes, "box"))
    states = _field(d, "states", path, _symbols)
    init = _field(d, "init", path)
    update = {}
    for row, rp in _field(d, "update", path, _rows(("state", "input", "next"))):
        key = (_field(row, "state", rp), _field(row, "input", rp, _symbols))
        if key in update:
            raise LoadError(rp, f"duplicate update row for {key}")
        update[key] = _field(row, "next", rp)
    readout = {}
    for row, rp in _field(d, "readout", path, _rows(("state", "output"))):
        s = _field(row, "state", rp)
        if s in readout:
            raise LoadError(rp, f"duplicate readout row for {s!r}")
        readout[s] = _field(row, "output", rp, _symbols)
    try:
        return name, MooreMachine(box, states, init, update, readout)
    except MachineError as e:
        raise LoadError(path, f"machine {name!r}: {e}") from None


# the most tables a source expression may nest; the first table deeper
# is refused at the path of the outermost expression
_MAX_TABLES = 100


def _load_expr(d, path: str, outermost: str = "", depth: int = 0) -> SourceExpr:
    keys = set(_mapping(d, path))
    if keys == {"outer"}:
        return OuterIn(*_field(d, "outer", path, _port_key))
    if keys == {"inner"}:
        return InnerOut(*_field(d, "inner", path, _port_key))
    if keys == {"const"}:
        return Const(_field(d, "const", path))
    if keys == {"table"}:
        outermost = outermost or path
        if depth == _MAX_TABLES:
            raise LoadError(outermost, f"table expression nests more than "
                                       f"{_MAX_TABLES} tables deep")
        tp = f"{path}.table"
        t = _row(d["table"], tp, ("sources", "rows"))
        sources = _list(lambda v, p: _load_expr(v, p, outermost, depth + 1))
        return Table(_field(t, "sources", tp, sources),
                     tuple((_field(row, "key", rp, _symbols), _field(row, "value", rp))
                           for row, rp in _field(t, "rows", tp, _rows(("key", "value")))))
    raise LoadError(path, "expected exactly one of outer/inner/const/table")


def _load_wiring(d, boxes: Mapping[str, Box], earlier: Mapping[str, Wiring],
                 path: str) -> tuple[str, Wiring]:
    name = _field(_mapping(d, path), "name", path)
    keys = set(d) - {"name"}
    if keys == {"identity"}:
        return name, identity_wiring(_field(d, "identity", path, _ref(boxes, "box")))
    if keys in ({"compose"}, {"tensor"}):
        (form,) = keys
        fp = f"{path}.{form}"
        ws = _field(d, form, path, _list(
            _ref(earlier, "wiring", " (forward references are not allowed)")))
        if form == "compose" and len(ws) < 2:
            raise LoadError(fp, "needs at least two wirings")
        with _errors_at(fp):
            if form == "tensor":
                return name, tensor(ws)
            # listed outermost first: compose spots g before f
            out = ws[-1]
            for g in reversed(ws[:-1]):
                out = compose(g, out)
            return name, out
    if keys == {"inner", "outer", "inputs", "outputs"}:
        def port_map(key: str) -> dict:
            out = {}
            for row, rp in _field(d, key, path, _rows(("target", "from"))):
                target = _field(row, "target", rp, _port_key)
                if target in out:
                    raise LoadError(rp, f"duplicate target {row['target']!r}")
                out[target] = _field(row, "from", rp, _load_expr)
            return out

        box_list = _list(_ref(boxes, "box"))
        with _errors_at(path):
            return name, Wiring(_field(d, "inner", path, box_list),
                                _field(d, "outer", path, box_list),
                                port_map("inputs"), port_map("outputs"))
    raise LoadError(
        path, "expected name plus exactly one of: identity, compose, tensor, "
              "or inner/outer/inputs/outputs")


def _load_system(s, machines, wirings, sp: str) -> tuple[str, CompositeSystem]:
    from .attacks import CompositeSystem

    s = _row(s, sp, ("name", "wiring", "components"))
    name = _field(s, "name", sp)
    wiring = _field(s, "wiring", sp, _ref(wirings, "wiring"))
    comps = _field(s, "components", sp, _list(_ref(machines, "machine")))
    with _errors_at(sp):
        return name, CompositeSystem(wiring, comps)


def _load_defs(d: dict, path: str):
    """Boxes, machines, wirings and systems, each defined before its use."""
    boxes = _named(d.get("boxes", []), f"{path}.boxes", "box",
                   lambda b, p, _: _load_box(b, p))
    machines = _named(d.get("machines", []), f"{path}.machines", "machine",
                      lambda m, p, _: _load_machine(m, boxes, p))
    wirings = _named(d.get("wirings", []), f"{path}.wirings", "wiring",
                     lambda w, p, earlier: _load_wiring(w, boxes, earlier, p))
    systems = _named(d.get("systems", []), f"{path}.systems", "system",
                     lambda s, p, _: _load_system(s, machines, wirings, p))
    return boxes, machines, wirings, systems


# kind names in documents; a kind's fields are its integer parameters
_TEST_KINDS = {"traces": TraceSet, "states": StateSet, "terminal": Terminal,
               "output-image": OutputImage}


def _load_test(d, path: str) -> Test:
    name = _field(_mapping(d, path), "name", path)
    kind_name = _field(d, "kind", path)
    if kind_name not in _TEST_KINDS:
        *first, last = _TEST_KINDS
        raise LoadError(f"{path}.kind", f"unknown kind {kind_name!r}; expected "
                                        f"{', '.join(first)}, or {last}")
    cls = _TEST_KINDS[kind_name]
    _row(d, path, ("name", "kind", *cls._fields))
    kind = cls(*(_field(d, p, path, _integer) for p in cls._fields))
    with _errors_at(path):
        return Test(name, kind)


def _load_battery(v, path: str) -> tuple[Test, ...]:
    tests = _list(_load_test)(v, path)
    names = [t.name for t in tests]
    if len(set(names)) != len(names):
        raise LoadError(path, "test names repeat")
    return tests


def _load_steps(v, machines, wirings, path: str,
                morphisms: bool = True) -> AttackScript:
    """Steps as written, checked only as fields: whether a step applies
    is for ``attacks.apply_script``, which the scenario.v1 loader runs on
    each script.  An attack.v1 document (``morphisms`` false) defines no
    systems, so its steps cannot carry a morphism rewrite's state map."""
    from .attacks import AttackScript, RewireStep, RewriteStep

    steps: list = []
    for row, rp in _rows()(v, path):
        if "rewrite" in row:
            _row(row, rp, ("rewrite", "machine", "state_map"))
            idx = _field(row, "rewrite", rp, _integer)
            target = _field(row, "machine", rp, _ref(machines, "machine"))
            state_map = None
            if "state_map" in row:
                if not morphisms:
                    raise LoadError(f"{rp}.state_map", "attack documents define no "
                                    "systems, so a morphism rewrite cannot be checked "
                                    "here; it belongs in a scenario.v1 script")
                state_map = _field(row, "state_map", rp, _string_map)
            steps.append(RewriteStep(idx, target, state_map))
        elif "rewire" in row:
            _row(row, rp, ("rewire", "wiring"))
            idx = _field(row, "rewire", rp, _integer)
            endo = _field(row, "wiring", rp, _ref(wirings, "wiring"))
            with _errors_at(rp):
                steps.append(RewireStep(idx, endo))
        else:
            raise LoadError(rp, "expected a rewrite or rewire step")
    return AttackScript(tuple(steps))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

class MachineDoc(Record):
    schema: str
    name: str
    machine: MooreMachine


class WiringDoc(Record):
    schema: str
    name: str
    wiring: Wiring
    boxes: Mapping[str, Box]


class SystemDoc(Record):
    schema: str
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]
    systems: Mapping[str, CompositeSystem]


class BatteryDoc(Record):
    schema: str
    tests: tuple[Test, ...]


class AttackDoc(Record):
    schema: str
    name: str
    system: Optional[str]
    script: AttackScript
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]


class ScenarioDoc(Record):
    schema: str
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]
    systems: Mapping[str, CompositeSystem]
    scenario: Scenario


def _doc_machine(d: dict, src: str) -> MachineDoc:
    _row(d, src, ("schema", "name", "box", "machine"))
    _, box = _field(d, "box", src, _load_box)
    body = _field(d, "machine", src, _mapping)
    name = _field(d, "name", src)
    # the document names the machine and its box, so the body may not
    _row(body, f"{src}.machine", ("states", "init", "update", "readout"))
    _, machine = _load_machine({**body, "name": name, "box": box.name},
                               {box.name: box}, f"{src}.machine")
    return MachineDoc("machine.v1", name, machine)


def _doc_wiring(d: dict, src: str) -> WiringDoc:
    _row(d, src, ("schema", "name", "boxes", "wiring"))
    boxes, _, _, _ = _load_defs({"boxes": d.get("boxes", [])}, src)
    body = _field(d, "wiring", src, _mapping)
    name = _field(d, "name", src)
    if "name" in body:
        raise LoadError(f"{src}.wiring", "unknown keys ['name']")
    _, wiring = _load_wiring({**body, "name": name}, boxes, {}, f"{src}.wiring")
    return WiringDoc("wiring.v1", name, wiring, boxes)


def _doc_system(d: dict, src: str) -> SystemDoc:
    _row(d, src, ("schema", "boxes", "machines", "wirings", "systems"))
    boxes, machines, wirings, systems = _load_defs(d, src)
    return SystemDoc("system.v1", boxes, machines, wirings, systems)


def _doc_battery(d: dict, src: str) -> BatteryDoc:
    _row(d, src, ("schema", "tests"))
    return BatteryDoc("battery.v1", _field(d, "tests", src, _load_battery))


def _doc_attack(d: dict, src: str) -> AttackDoc:
    _row(d, src, ("schema", "name", "system", "boxes", "machines", "wirings",
                  "steps"))
    name = _field(d, "name", src)
    system = _string(d["system"], f"{src}.system") if "system" in d else None
    boxes, machines, wirings, _ = _load_defs(d, src)
    script = _field(d, "steps", src,
                    lambda v, p: _load_steps(v, machines, wirings, p, False))
    return AttackDoc("attack.v1", name, system, script, boxes, machines, wirings)


def _doc_scenario(d: dict, src: str) -> ScenarioDoc:
    from .attacks import (AttackError, CompositeSystem, RewireStep, Scenario,
                          ScenarioScript, apply_script)

    _row(d, src, ("schema", "name", "boxes", "machines", "wirings", "systems",
                  "real", "attacker_view", "correspondence", "kb", "battery",
                  "scripts"))
    name = _field(d, "name", src)
    boxes, machines, wirings, systems = _load_defs(d, src)
    real = _field(d, "real", src)
    view = _field(d, "attacker_view", src)
    for key, kp in ((real, "real"), (view, "attacker_view")):
        _ref(systems, "system")(key, f"{src}.{kp}")
    corr: dict[int, tuple[int, ...]] = {}
    for row, rp in _field(d, "correspondence", src, _rows(("view", "real"))):
        v = _field(row, "view", rp, _integer)
        rs = _field(row, "real", rp, _list(_integer))
        if v in corr:
            raise LoadError(rp, f"duplicate view slot {v}")
        corr[v] = rs
    n_view = len(systems[view].components)
    n_real = len(systems[real].components)
    if set(corr) != set(range(n_view)):
        raise LoadError(f"{src}.correspondence",
                        f"view slots must cover 0..{n_view - 1} exactly")
    covered = [j for v in sorted(corr) for j in corr[v]]
    if sorted(covered) != list(range(n_real)):
        raise LoadError(f"{src}.correspondence",
                        f"real slots must cover 0..{n_real - 1} exactly once")
    rows = []  # (name, machine or system, row path)
    for row, rp in _field(d, "kb", src, _rows()):
        ename = _field(row, "name", rp)
        if set(row) == {"name", "machine"}:
            entry = _field(row, "machine", rp, _ref(machines, "machine"))
        elif set(row) == {"name", "system"}:
            entry = _field(row, "system", rp, _ref(systems, "system"))
        else:
            raise LoadError(rp, "expected name plus machine or system")
        rows.append((ename, entry, rp))
    kb_box = systems[view].box
    with _errors_at(f"{src}.kb"):
        # the check reads each entry's box alone, and a system's box is
        # its composite's, so the entries are checked before any is built
        KnowledgeBase(kb_box, tuple((n, entry) for n, entry, _ in rows))

    def knowledge() -> KnowledgeBase:
        entries = []
        for ename, entry, rp in rows:
            if isinstance(entry, CompositeSystem):
                with _errors_at(rp):
                    entry = entry.composite()
            entries.append((ename, entry))
        return KnowledgeBase._built(kb_box, tuple(entries))

    tests = _field(d, "battery", src, _load_battery)

    def script(row, rp: str, _) -> tuple[str, ScenarioScript]:
        row = _row(row, rp, ("name", "system", "steps"))
        sname = _field(row, "name", rp)
        target = _string(row.get("system", view), f"{rp}.system")
        aimed = _ref(systems, "system")(target, f"{rp}.system")
        steps = _field(row, "steps", rp,
                       lambda v, p: _load_steps(v, machines, wirings, p))
        try:
            result = apply_script(aimed, steps)
        except AttackError as e:
            # the step at fault and its own error, at the field it read
            k, cause = len(e.log), e.__cause__
            key = ("state_map" if isinstance(cause, MachineError) else
                   "rewire" if isinstance(steps.steps[k], RewireStep)
                   else "rewrite")
            raise LoadError(f"{rp}.steps[{k}].{key}", str(cause)) from None
        return sname, ScenarioScript(sname, target, steps, result)

    scripts = _field(d, "scripts", src, lambda v, p: _named(v, p, "script", script))
    scenario = Scenario(name, systems, real, view, corr, knowledge, tests,
                        tuple(scripts.values()))
    return ScenarioDoc("scenario.v1", boxes, machines, wirings, systems, scenario)


# fileformat's dispatch: schema -> loader
LOADERS = {"machine.v1": _doc_machine, "wiring.v1": _doc_wiring,
           "system.v1": _doc_system, "battery.v1": _doc_battery,
           "attack.v1": _doc_attack, "scenario.v1": _doc_scenario}


def load_kb_dir(path: str) -> KnowledgeBase:
    """A knowledge base from a directory of machine.v1 files.

    Files are read in sorted name order; entry names are the machine
    names in the files.  All machines must share one box.
    """
    try:
        names = sorted(n for n in os.listdir(path)
                       if n.endswith((".yaml", ".yml")))
    except OSError as e:
        raise LoadError(path, f"cannot read directory: {e}") from None
    if not names:
        raise LoadError(path, "no machine files found")
    entries = []
    box = None
    for n in names:
        doc = load(os.path.join(path, n))
        if not isinstance(doc, MachineDoc):
            raise LoadError(n, "knowledge base entries must be machine.v1")
        if box is None:
            box = doc.machine.box
        entries.append((doc.name, doc.machine))
    with _errors_at(path):
        return KnowledgeBase(box, tuple(entries))
