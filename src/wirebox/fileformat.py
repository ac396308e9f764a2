"""On-disk formats: YAML documents with an explicit ``schema`` field.

Seven schemas are understood:

* ``machine.v1``  one machine with its box
* ``wiring.v1``   one wiring with its boxes
* ``system.v1``   boxes, machines, wirings, and named systems
* ``battery.v1``  a list of behavioral tests
* ``attack.v1``   one attack script, self-contained with its payloads
* ``scenario.v1`` systems plus correspondence, knowledge base, battery,
  and named scripts
* ``fincat.v1``   a finite category presentation with set-valued functors

Loading is eager and strict: every reference is resolved, machines are
validated, wirings are constructed (which validates them), and any
problem raises LoadError naming the offending field path.  Loading has no
side effects and a fixed result for a fixed file.

Definitions resolve top to bottom: a wiring may name only wirings defined
before it, which keeps files readable and rules out cycles by
construction.

Text is parsed with pyyaml's libyaml loader (``yaml.CSafeLoader``) when
pyyaml was built with libyaml, and with the pure-Python
``yaml.SafeLoader`` otherwise.  Both give equal data on every bundled
fixture; two differences are known.  A tab inside or after a plain
scalar (``p1: \\tr``) parses under libyaml and is rejected by
``SafeLoader``; a byte-order mark in mid-document is skipped by
``SafeLoader`` and rejected by libyaml.  Anything the parse raises
becomes a LoadError ``not valid YAML``.  A syntax error reads ``not valid
YAML at line L, column C: <problem>`` under either loader, though the
problem text is the loader's own; a malformed scalar such as
``2001-02-30`` or ``!!bool maybe`` reads ``not valid YAML at line L,
column C: cannot read !!<tag> value '<text>'``, the text cut to 40
characters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import yaml

from .attacks import (AttackScript, CompositeSystem, RewireStep, RewriteStep,
                      Scenario, ScenarioScript)
from .moore import MachineHom, MooreMachine, hom_violations, render_state, validate_machine
from .probes import (CARDINALITY, EQUALITY, KnowledgeBase, OutputImage,
                     StateSet, Terminal, Test, TraceSet, default_comparator)
from .wiring import (Box, Const, InnerOut, OuterIn, Port, SourceExpr, Table,
                     Wiring, WiringError, compose, identity_wiring, tensor)

if TYPE_CHECKING:  # only the fincat.v1 loader imports fincat at run time
    from . import fincat as fc


def _marked_scalars(base: type) -> type:
    """``base`` with the !!int, !!float, !!bool and !!timestamp constructors
    raising a ConstructorError at the scalar's start mark on a malformed
    value; every other node is constructed as ``base`` does it."""

    class Loader(base):
        pass

    def construct_marked(loader, node):
        # 2001-02-30 and !!int abc raise ValueError, !!bool maybe
        # KeyError, !!timestamp abc AttributeError
        try:
            return base.yaml_constructors[node.tag](loader, node)
        except (ValueError, KeyError, AttributeError):
            tag = node.tag.rsplit(":", 1)[1]
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read !!{tag} value '{node.value[:40]}'",
                node.start_mark) from None

    for tag in ("int", "float", "bool", "timestamp"):
        Loader.add_constructor(f"tag:yaml.org,2002:{tag}", construct_marked)
    return Loader


# libyaml's parser when pyyaml was built with it; same documents, ~8x faster
_YAML_LOADER = _marked_scalars(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class LoadError(Exception):
    """A document that cannot be loaded, with the field path at fault."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# schema walking helpers
# ---------------------------------------------------------------------------

def _mapping(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise LoadError(path, f"expected a mapping, got {type(v).__name__}")
    return v


def _sequence(v, path: str) -> list:
    if not isinstance(v, list):
        raise LoadError(path, f"expected a list, got {type(v).__name__}")
    return v


def _string(v, path: str) -> str:
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise LoadError(path, f"expected a string, got {type(v).__name__}")
    return str(v)


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise LoadError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise LoadError(path, f"missing required key {key!r}")
    return d[key]


def _no_extras(d: dict, allowed: Sequence[str], path: str):
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise LoadError(path, f"unknown keys {extra}")


def _resolve(table: Mapping, kind: str, name, path: str, note: str = ""):
    """The ``kind`` entry called ``name``; LoadError at ``path`` if undefined."""
    if name not in table:
        raise LoadError(path, f"unknown {kind} {name!r}{note}")
    return table[name]


def _named(rows, path: str, kind: str, load_item) -> dict:
    """Named items as ``{name: item}``; a repeated name fails at its item.

    ``load_item(row, item_path, earlier)`` gives (name, item); ``earlier``
    holds the items before it.
    """
    out: dict = {}
    for i, row in enumerate(_sequence(rows, path)):
        ip = f"{path}[{i}]"
        name, item = load_item(row, ip, out)
        if name in out:
            raise LoadError(ip, f"duplicate {kind} {name!r}")
        out[name] = item
    return out


def _symbols(v, path: str) -> tuple[str, ...]:
    return tuple(_string(x, f"{path}[{i}]") for i, x in enumerate(_sequence(v, path)))


def _port_key(v, path: str) -> tuple[int, str]:
    s = _string(v, path)
    head, sep, port = s.partition(".")
    if not sep or not port:
        raise LoadError(path, f"expected 'index.port', got {s!r}")
    try:
        idx = int(head)
    except ValueError:
        raise LoadError(path, f"expected 'index.port', got {s!r}") from None
    return idx, port


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------

def _load_box(d, path: str) -> tuple[str, Box]:
    d = _mapping(d, path)
    _no_extras(d, ("name", "inputs", "outputs"), path)
    name = _string(_get(d, "name", path), f"{path}.name")

    def ports(key: str) -> tuple[Port, ...]:
        out = []
        for i, p in enumerate(_sequence(_get(d, key, path), f"{path}.{key}")):
            pp = f"{path}.{key}[{i}]"
            p = _mapping(p, pp)
            _no_extras(p, ("port", "alphabet"), pp)
            out.append(Port(_string(_get(p, "port", pp), f"{pp}.port"),
                            _symbols(_get(p, "alphabet", pp), f"{pp}.alphabet")))
        return tuple(out)

    try:
        return name, Box(name, ports("inputs"), ports("outputs"))
    except WiringError as e:
        raise LoadError(path, str(e)) from None


def _load_machine(d, boxes: Mapping[str, Box], path: str) -> tuple[str, MooreMachine]:
    d = _mapping(d, path)
    _no_extras(d, ("name", "box", "states", "init", "update", "readout"), path)
    name = _string(_get(d, "name", path), f"{path}.name")
    box = _resolve(boxes, "box", _string(_get(d, "box", path), f"{path}.box"),
                   f"{path}.box")
    states = _symbols(_get(d, "states", path), f"{path}.states")
    init = _string(_get(d, "init", path), f"{path}.init")
    update = {}
    for i, row in enumerate(_sequence(_get(d, "update", path), f"{path}.update")):
        rp = f"{path}.update[{i}]"
        row = _mapping(row, rp)
        _no_extras(row, ("state", "input", "next"), rp)
        key = (_string(_get(row, "state", rp), f"{rp}.state"),
               _symbols(_get(row, "input", rp), f"{rp}.input"))
        if key in update:
            raise LoadError(rp, f"duplicate update row for {key}")
        update[key] = _string(_get(row, "next", rp), f"{rp}.next")
    readout = {}
    for i, row in enumerate(_sequence(_get(d, "readout", path), f"{path}.readout")):
        rp = f"{path}.readout[{i}]"
        row = _mapping(row, rp)
        _no_extras(row, ("state", "output"), rp)
        s = _string(_get(row, "state", rp), f"{rp}.state")
        if s in readout:
            raise LoadError(rp, f"duplicate readout row for {s!r}")
        readout[s] = _symbols(_get(row, "output", rp), f"{rp}.output")
    m = MooreMachine(box, states, init, update, readout)
    report = validate_machine(m)
    if not report.ok:
        raise LoadError(path, f"machine {name!r}: {report.errors[0]}")
    return name, m


def _load_expr(d, path: str) -> SourceExpr:
    d = _mapping(d, path)
    keys = set(d)
    if keys == {"outer"}:
        idx, port = _port_key(d["outer"], f"{path}.outer")
        return OuterIn(idx, port)
    if keys == {"inner"}:
        idx, port = _port_key(d["inner"], f"{path}.inner")
        return InnerOut(idx, port)
    if keys == {"const"}:
        return Const(_string(d["const"], f"{path}.const"))
    if keys == {"table"}:
        tp = f"{path}.table"
        t = _mapping(d["table"], tp)
        _no_extras(t, ("sources", "rows"), tp)
        sources = tuple(
            _load_expr(s, f"{tp}.sources[{i}]")
            for i, s in enumerate(_sequence(_get(t, "sources", tp), f"{tp}.sources")))
        entries = []
        for i, row in enumerate(_sequence(_get(t, "rows", tp), f"{tp}.rows")):
            rp = f"{tp}.rows[{i}]"
            row = _mapping(row, rp)
            _no_extras(row, ("key", "value"), rp)
            entries.append((_symbols(_get(row, "key", rp), f"{rp}.key"),
                            _string(_get(row, "value", rp), f"{rp}.value")))
        return Table(sources, tuple(entries))
    raise LoadError(path, "expected exactly one of outer/inner/const/table")


def _load_wiring(d, boxes: Mapping[str, Box], earlier: Mapping[str, Wiring],
                 path: str) -> tuple[str, Wiring]:
    d = _mapping(d, path)
    name = _string(_get(d, "name", path), f"{path}.name")
    keys = set(d) - {"name"}
    if keys == {"identity"}:
        ip = f"{path}.identity"
        return name, identity_wiring(
            _resolve(boxes, "box", _string(d["identity"], ip), ip))
    if keys in ({"compose"}, {"tensor"}):
        (form,) = keys
        fp = f"{path}.{form}"
        parts = _sequence(d[form], fp)
        if form == "compose" and len(parts) < 2:
            raise LoadError(fp, "needs at least two wirings")
        ws = [_resolve(earlier, "wiring", _string(wn, f"{fp}[{i}]"), f"{fp}[{i}]",
                       " (forward references are not allowed)")
              for i, wn in enumerate(parts)]
        try:
            if form == "tensor":
                return name, tensor(ws)
            # listed outermost first: compose spots g before f
            out = ws[-1]
            for g in reversed(ws[:-1]):
                out = compose(g, out)
            return name, out
        except WiringError as e:
            raise LoadError(fp, str(e)) from None
    if keys == {"inner", "outer", "inputs", "outputs"}:
        def box_list(key: str) -> tuple[Box, ...]:
            return tuple(
                _resolve(boxes, "box", _string(bn, f"{path}.{key}[{i}]"),
                         f"{path}.{key}[{i}]")
                for i, bn in enumerate(_sequence(d[key], f"{path}.{key}")))

        def port_map(key: str) -> dict:
            out = {}
            for i, row in enumerate(_sequence(d[key], f"{path}.{key}")):
                rp = f"{path}.{key}[{i}]"
                row = _mapping(row, rp)
                _no_extras(row, ("target", "from"), rp)
                target = _port_key(_get(row, "target", rp), f"{rp}.target")
                if target in out:
                    raise LoadError(rp, f"duplicate target {row['target']!r}")
                out[target] = _load_expr(_get(row, "from", rp), f"{rp}.from")
            return out

        try:
            return name, Wiring(box_list("inner"), box_list("outer"),
                                port_map("inputs"), port_map("outputs"))
        except WiringError as e:
            raise LoadError(path, str(e)) from None
    raise LoadError(
        path, "expected name plus exactly one of: identity, compose, tensor, "
              "or inner/outer/inputs/outputs")


def _load_system(s, machines, wirings, sp: str) -> tuple[str, CompositeSystem]:
    s = _mapping(s, sp)
    _no_extras(s, ("name", "wiring", "components"), sp)
    name = _string(_get(s, "name", sp), f"{sp}.name")
    wiring = _resolve(wirings, "wiring",
                      _string(_get(s, "wiring", sp), f"{sp}.wiring"),
                      f"{sp}.wiring")
    comps = tuple(
        _resolve(machines, "machine", _string(mn, f"{sp}.components[{j}]"),
                 f"{sp}.components[{j}]")
        for j, mn in enumerate(_sequence(_get(s, "components", sp),
                                         f"{sp}.components")))
    try:
        return name, CompositeSystem(wiring, comps)
    except Exception as e:
        raise LoadError(sp, str(e)) from None


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
    d = _mapping(d, path)
    _no_extras(d, ("name", "kind", "depth", "step", "compare"), path)
    name = _string(_get(d, "name", path), f"{path}.name")
    kind_name = _string(_get(d, "kind", path), f"{path}.kind")
    if kind_name not in _TEST_KINDS:
        *first, last = _TEST_KINDS
        raise LoadError(f"{path}.kind", f"unknown kind {kind_name!r}; expected "
                                        f"{', '.join(first)}, or {last}")
    cls = _TEST_KINDS[kind_name]
    kind = cls(*(_integer(_get(d, f.name, path), f"{path}.{f.name}")
                 for f in fields(cls)))
    compare = d.get("compare", "")
    if compare and compare not in (EQUALITY, CARDINALITY):
        raise LoadError(f"{path}.compare",
                        f"expected {EQUALITY!r} or {CARDINALITY!r}")
    return Test(name, kind, compare)


def _load_battery(rows, path: str) -> tuple[Test, ...]:
    tests = tuple(_load_test(t, f"{path}[{i}]")
                  for i, t in enumerate(_sequence(rows, path)))
    names = [t.name for t in tests]
    if len(set(names)) != len(names):
        raise LoadError(path, "test names repeat")
    return tests


def _load_steps(rows, machines, wirings, components, path: str) -> AttackScript:
    """Steps aimed at a system of ``components``; None in attack.v1."""
    steps: list = []
    for i, row in enumerate(_sequence(rows, path)):
        rp = f"{path}[{i}]"
        row = _mapping(row, rp)
        if "rewrite" in row:
            _no_extras(row, ("rewrite", "machine", "state_map"), rp)
            idx = _integer(row["rewrite"], f"{rp}.rewrite")
            target = _resolve(machines, "machine",
                              _string(_get(row, "machine", rp), f"{rp}.machine"),
                              f"{rp}.machine")
            if "state_map" in row:
                if components is None:
                    raise LoadError(f"{rp}.state_map", "attack documents define no "
                                    "systems, so a morphism rewrite cannot be checked "
                                    "here; it belongs in a scenario.v1 script")
                raw = _mapping(row["state_map"], f"{rp}.state_map")
                state_map = {_string(k, f"{rp}.state_map"): _string(v, f"{rp}.state_map")
                             for k, v in raw.items()}
                if not 0 <= idx < len(components):
                    raise LoadError(f"{rp}.rewrite", f"no component {idx}")
                hom = MachineHom(components[idx], target, state_map)
                bad = hom_violations(hom)
                if bad:
                    raise LoadError(f"{rp}.state_map", bad[0])
                steps.append(RewriteStep(idx, hom=hom))
            else:
                steps.append(RewriteStep(idx, machine=target))
        elif "rewire" in row:
            _no_extras(row, ("rewire", "wiring"), rp)
            idx = _integer(row["rewire"], f"{rp}.rewire")
            endo = _resolve(wirings, "wiring",
                            _string(_get(row, "wiring", rp), f"{rp}.wiring"),
                            f"{rp}.wiring")
            try:
                steps.append(RewireStep(idx, endo))
            except Exception as e:
                raise LoadError(rp, str(e)) from None
        else:
            raise LoadError(rp, "expected a rewrite or rewire step")
    return AttackScript(tuple(steps))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MachineDoc:
    schema: str
    name: str
    machine: MooreMachine


@dataclass(frozen=True, eq=False)
class WiringDoc:
    schema: str
    name: str
    wiring: Wiring
    boxes: Mapping[str, Box]


@dataclass(frozen=True, eq=False)
class SystemDoc:
    schema: str
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]
    systems: Mapping[str, CompositeSystem]


@dataclass(frozen=True, eq=False)
class BatteryDoc:
    schema: str
    tests: tuple[Test, ...]


@dataclass(frozen=True, eq=False)
class AttackDoc:
    schema: str
    name: str
    system: Optional[str]
    script: AttackScript
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]


@dataclass(frozen=True, eq=False)
class FincatDoc:
    schema: str
    category: fc.FinCategory
    functors: Mapping[str, fc.SetFunctor]


@dataclass(frozen=True, eq=False)
class ScenarioDoc:
    schema: str
    boxes: Mapping[str, Box]
    machines: Mapping[str, MooreMachine]
    wirings: Mapping[str, Wiring]
    systems: Mapping[str, CompositeSystem]
    scenario: Scenario


def _yaml_problem(e: Exception) -> str:
    """The ``not valid YAML`` message, worded alike under either loader."""
    mark = getattr(e, "problem_mark", None)
    if mark is None:
        return f"not valid YAML: {e}"
    return (f"not valid YAML at line {mark.line + 1}, "
            f"column {mark.column + 1}: {e.problem}")


def loads(text: str, source: str = "<string>"):
    """Parse and resolve a document from text; see load."""
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except Exception as e:
        # besides YAMLError, the pure-Python loader raises RecursionError
        # on deep nesting
        raise LoadError(source, _yaml_problem(e)) from None
    d = _mapping(data, source)
    schema = _string(_get(d, "schema", source), f"{source}.schema")
    if schema not in _LOADERS:
        raise LoadError(f"{source}.schema",
                        f"unknown schema {schema!r}; expected one of {list(SCHEMAS)}")
    return _LOADERS[schema](d, source)


def load(path: str):
    """Load one YAML document from a file, strictly.

    Returns the document object for the file's schema.  Raises LoadError
    with a field path on any structural problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise LoadError(path, f"cannot read: {e}") from None
    return loads(text, source=os.path.basename(path))


def _doc_machine(d: dict, src: str) -> MachineDoc:
    _no_extras(d, ("schema", "name", "box", "machine"), src)
    _, box = _load_box(_get(d, "box", src), f"{src}.box")
    body = dict(_mapping(_get(d, "machine", src), f"{src}.machine"))
    body.setdefault("name", _string(_get(d, "name", src), f"{src}.name"))
    body["box"] = box.name
    name, machine = _load_machine(body, {box.name: box}, f"{src}.machine")
    return MachineDoc("machine.v1", name, machine)


def _doc_wiring(d: dict, src: str) -> WiringDoc:
    _no_extras(d, ("schema", "name", "boxes", "wiring"), src)
    boxes, _, _, _ = _load_defs({"boxes": d.get("boxes", [])}, src)
    body = dict(_mapping(_get(d, "wiring", src), f"{src}.wiring"))
    body.setdefault("name", _string(_get(d, "name", src), f"{src}.name"))
    name, wiring = _load_wiring(body, boxes, {}, f"{src}.wiring")
    return WiringDoc("wiring.v1", name, wiring, boxes)


def _doc_system(d: dict, src: str) -> SystemDoc:
    _no_extras(d, ("schema", "boxes", "machines", "wirings", "systems"), src)
    boxes, machines, wirings, systems = _load_defs(d, src)
    return SystemDoc("system.v1", boxes, machines, wirings, systems)


def _doc_battery(d: dict, src: str) -> BatteryDoc:
    _no_extras(d, ("schema", "tests"), src)
    return BatteryDoc("battery.v1",
                      _load_battery(_get(d, "tests", src), f"{src}.tests"))


def _doc_attack(d: dict, src: str) -> AttackDoc:
    _no_extras(d, ("schema", "name", "system", "boxes", "machines", "wirings",
                   "steps"), src)
    name = _string(_get(d, "name", src), f"{src}.name")
    system = _string(d["system"], f"{src}.system") if "system" in d else None
    boxes, machines, wirings, _ = _load_defs(d, src)
    script = _load_steps(_get(d, "steps", src), machines, wirings, None,
                         f"{src}.steps")
    return AttackDoc("attack.v1", name, system, script, boxes, machines, wirings)


def _doc_scenario(d: dict, src: str) -> ScenarioDoc:
    _no_extras(d, ("schema", "name", "boxes", "machines", "wirings", "systems",
                   "real", "attacker_view", "correspondence", "kb", "battery",
                   "scripts"), src)
    name = _string(_get(d, "name", src), f"{src}.name")
    boxes, machines, wirings, systems = _load_defs(d, src)
    real = _string(_get(d, "real", src), f"{src}.real")
    view = _string(_get(d, "attacker_view", src), f"{src}.attacker_view")
    for key, kp in ((real, "real"), (view, "attacker_view")):
        _resolve(systems, "system", key, f"{src}.{kp}")
    corr: dict[int, tuple[int, ...]] = {}
    for i, row in enumerate(_sequence(_get(d, "correspondence", src),
                                      f"{src}.correspondence")):
        rp = f"{src}.correspondence[{i}]"
        row = _mapping(row, rp)
        _no_extras(row, ("view", "real"), rp)
        v = _integer(_get(row, "view", rp), f"{rp}.view")
        rs = tuple(_integer(x, f"{rp}.real[{j}]")
                   for j, x in enumerate(_sequence(_get(row, "real", rp), f"{rp}.real")))
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
    entries = []
    for i, row in enumerate(_sequence(_get(d, "kb", src), f"{src}.kb")):
        rp = f"{src}.kb[{i}]"
        row = _mapping(row, rp)
        ename = _string(_get(row, "name", rp), f"{rp}.name")
        if set(row) == {"name", "machine"}:
            entries.append((ename, _resolve(
                machines, "machine", _string(row["machine"], f"{rp}.machine"),
                f"{rp}.machine")))
        elif set(row) == {"name", "system"}:
            entries.append((ename, _resolve(
                systems, "system", _string(row["system"], f"{rp}.system"),
                f"{rp}.system").composite()))
        else:
            raise LoadError(rp, "expected name plus machine or system")
    try:
        kb = KnowledgeBase(systems[view].box, tuple(entries))
    except Exception as e:
        raise LoadError(f"{src}.kb", str(e)) from None
    tests = _load_battery(_get(d, "battery", src), f"{src}.battery")

    def script(row, rp: str, _) -> tuple[str, ScenarioScript]:
        row = _mapping(row, rp)
        _no_extras(row, ("name", "system", "steps"), rp)
        sname = _string(_get(row, "name", rp), f"{rp}.name")
        target = _string(row.get("system", view), f"{rp}.system")
        comps = _resolve(systems, "system", target, f"{rp}.system").components
        steps = _load_steps(_get(row, "steps", rp), machines, wirings, comps,
                            f"{rp}.steps")
        return sname, ScenarioScript(sname, target, steps)

    scripts = _named(_get(d, "scripts", src), f"{src}.scripts", "script", script)
    scenario = Scenario(name, systems, real, view, corr, kb, tests,
                        tuple(scripts.values()))
    return ScenarioDoc("scenario.v1", boxes, machines, wirings, systems, scenario)


def _doc_fincat(d: dict, src: str) -> FincatDoc:
    from . import fincat as fc

    _no_extras(d, ("schema", "name", "objects", "morphisms", "identities",
                   "composition", "functors"), src)
    name = _string(_get(d, "name", src), f"{src}.name")
    objects = tuple(_string(o, f"{src}.objects[{i}]")
                    for i, o in enumerate(_sequence(_get(d, "objects", src),
                                                    f"{src}.objects")))
    morphisms = []
    for i, row in enumerate(_sequence(_get(d, "morphisms", src), f"{src}.morphisms")):
        rp = f"{src}.morphisms[{i}]"
        row = _mapping(row, rp)
        _no_extras(row, ("id", "src", "tgt"), rp)
        morphisms.append(fc.Morphism(_string(_get(row, "id", rp), f"{rp}.id"),
                                     _string(_get(row, "src", rp), f"{rp}.src"),
                                     _string(_get(row, "tgt", rp), f"{rp}.tgt")))
    identities = {_string(k, f"{src}.identities"): _string(v, f"{src}.identities")
                  for k, v in _mapping(_get(d, "identities", src),
                                       f"{src}.identities").items()}
    composition = {}
    for i, row in enumerate(_sequence(_get(d, "composition", src),
                                      f"{src}.composition")):
        rp = f"{src}.composition[{i}]"
        row = _mapping(row, rp)
        _no_extras(row, ("after", "first", "result"), rp)
        key = (_string(_get(row, "after", rp), f"{rp}.after"),
               _string(_get(row, "first", rp), f"{rp}.first"))
        if key in composition:
            raise LoadError(rp, f"duplicate composition entry {key}")
        composition[key] = _string(_get(row, "result", rp), f"{rp}.result")
    cat = fc.FinCategory(name, objects, tuple(morphisms), identities, composition)
    report = fc.validate_category(cat)
    if not report.ok:
        first = (report.structural + report.violations)[0]
        raise LoadError(src, f"category {name!r}: {first}")

    def functor(row, rp: str, _) -> tuple[str, fc.SetFunctor]:
        row = _mapping(row, rp)
        _no_extras(row, ("name", "objects", "morphisms"), rp)
        fname = _string(_get(row, "name", rp), f"{rp}.name")
        on_obj = {_string(k, f"{rp}.objects"): _symbols(v, f"{rp}.objects[{k}]")
                  for k, v in _mapping(_get(row, "objects", rp),
                                       f"{rp}.objects").items()}
        on_mor = {}
        for mk, mv in _mapping(_get(row, "morphisms", rp), f"{rp}.morphisms").items():
            mp = f"{rp}.morphisms[{mk}]"
            on_mor[_string(mk, mp)] = {
                _string(a, mp): _string(b, mp)
                for a, b in _mapping(mv, mp).items()}
        F = fc.SetFunctor(fname, cat, on_obj, on_mor)
        bad = fc.validate_functor(F)
        if bad:
            raise LoadError(rp, f"functor {fname!r}: {bad[0]}")
        return fname, F

    functors = _named(d.get("functors", []), f"{src}.functors", "functor", functor)
    return FincatDoc("fincat.v1", cat, functors)


_LOADERS = {"machine.v1": _doc_machine, "wiring.v1": _doc_wiring,
            "system.v1": _doc_system, "battery.v1": _doc_battery,
            "attack.v1": _doc_attack, "scenario.v1": _doc_scenario,
            "fincat.v1": _doc_fincat}
SCHEMAS = tuple(_LOADERS)


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
    try:
        return KnowledgeBase(box, tuple(entries))
    except Exception as e:
        raise LoadError(path, str(e)) from None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def box_data(box: Box) -> dict:
    return {
        "name": box.name,
        "inputs": [{"port": p.name, "alphabet": list(p.alphabet)}
                   for p in box.in_ports],
        "outputs": [{"port": p.name, "alphabet": list(p.alphabet)}
                    for p in box.out_ports],
    }


def machine_data(name: str, m: MooreMachine) -> dict:
    """Machine as plain data; tuple states are rendered to strings.

    Two states that render alike, such as the composite states
    ``("a,b", "c")`` and ``("a", "b,c")``, would load back as one, so
    such a machine is refused with a LoadError.
    """
    rs = render_state
    states = [rs(s) for s in m.states]
    if len(set(states)) != len(states):
        text = next(t for k, t in enumerate(states) if t in states[:k])
        raise LoadError(name, f"two states render as {text!r}, so the "
                              f"machine cannot be written and read back")
    inputs = sorted({x for (_, x) in m.update})
    return {
        "name": name,
        "box": m.box.name,
        "states": states,
        "init": rs(m.init),
        "update": [{"state": rs(s), "input": list(x), "next": rs(m.update[(s, x)])}
                   for s in m.states for x in inputs if (s, x) in m.update],
        "readout": [{"state": rs(s), "output": list(m.readout[s])}
                    for s in m.states if s in m.readout],
    }


def expr_data(expr: SourceExpr) -> dict:
    if isinstance(expr, OuterIn):
        return {"outer": f"{expr.box}.{expr.port}"}
    if isinstance(expr, InnerOut):
        return {"inner": f"{expr.box}.{expr.port}"}
    if isinstance(expr, Const):
        return {"const": expr.symbol}
    return {"table": {
        "sources": [expr_data(s) for s in expr.sources],
        "rows": [{"key": list(k), "value": v} for k, v in expr.entries],
    }}


def wiring_data(name: str, w: Wiring) -> dict:
    return {
        "name": name,
        "inner": [b.name for b in w.inner],
        "outer": [b.name for b in w.outer],
        "inputs": [{"target": f"{i}.{p.name}",
                    "from": expr_data(w.in_map[(i, p.name)])}
                   for i, p in w.inner_input_ports()],
        "outputs": [{"target": f"{j}.{p.name}",
                     "from": expr_data(w.out_map[(j, p.name)])}
                    for j, p in w.outer_output_ports()],
    }


def test_data(t: Test) -> dict:
    kind = t.kind
    out: dict = {"name": t.name,
                 "kind": next(n for n, c in _TEST_KINDS.items() if type(kind) is c)}
    out.update((f.name, getattr(kind, f.name)) for f in fields(kind))
    if t.comparator != default_comparator(kind):
        out["compare"] = t.comparator
    return out


def _dump(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=False, width=88)


def dump_machine(name: str, m: MooreMachine) -> str:
    data = machine_data(name, m)
    body = {k: data[k] for k in ("states", "init", "update", "readout")}
    return _dump({"schema": "machine.v1", "name": name,
                  "box": box_data(m.box), "machine": body})


def collect_boxes(*groups) -> dict[str, Box]:
    """Distinct boxes by name; conflicting same-name boxes are an error."""
    out: dict[str, Box] = {}
    for group in groups:
        for box in group:
            if box.name in out and out[box.name] != box:
                raise LoadError(box.name, "conflicting definitions for one box name")
            out[box.name] = box
    return out


def dump_system(systems: Mapping[str, CompositeSystem]) -> str:
    """A system.v1 document covering the given named systems.

    Component machines are named slot by slot; structurally equal
    machines share one definition.
    """
    boxes = collect_boxes(*(group for system in systems.values()
                            for group in (system.wiring.inner, system.wiring.outer)))
    machines: list[tuple[str, MooreMachine]] = []
    wirings: list[tuple[str, Wiring]] = []
    out_systems = []
    for sys_name, system in systems.items():
        comp_names = []
        for m in system.components:
            found = next((n for n, other in machines if other == m), None)
            if found is None:
                found = f"{m.box.name}-{len(machines)}"
                machines.append((found, m))
            comp_names.append(found)
        wname = f"{sys_name}-wiring"
        wirings.append((wname, system.wiring))
        out_systems.append({"name": sys_name, "wiring": wname,
                            "components": comp_names})
    return _dump({
        "schema": "system.v1",
        "boxes": [box_data(b) for b in boxes.values()],
        "machines": [machine_data(n, m) for n, m in machines],
        "wirings": [wiring_data(n, w) for n, w in wirings],
        "systems": out_systems,
    })
