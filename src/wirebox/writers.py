"""Writing systems and machines as documents: the ``system.v1`` and
``machine.v1`` text that ``compose`` and ``attack`` print, and the plain
data it is dumped from.

What is written loads back to equal machines and wirings.  Each public
name here is also a name of ``fileformat``, which imports this module on
first use, so only a command that writes a document compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import yaml

from .fileformat import LoadError
from .moore import MooreMachine, render_state
from .wiring import Box, Const, InnerOut, OuterIn, SourceExpr, Wiring

if TYPE_CHECKING:
    from .attacks import CompositeSystem


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
    inputs = sorted(m.inputs())
    return {
        "name": name,
        "box": m.box.name,
        "states": states,
        "init": rs(m.init),
        "update": [{"state": rs(s), "input": list(x), "next": rs(m.update[(s, x)])}
                   for s in m.states for x in inputs],
        "readout": [{"state": rs(s), "output": list(m.readout[s])}
                    for s in m.states],
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


def _dump(data: dict) -> str:
    """The document for ``data``: exactly ``yaml.safe_dump(data,
    sort_keys=False, width=88)``, written by libyaml's emitter
    (``yaml.CSafeDumper``) when it writes the same text.

    That is when pyyaml was built with libyaml and ``data`` holds only
    lists, dicts and printable-ASCII strings (``' '`` to ``'~'``), its
    keys 1 to 99 characters long.  The two emitters fold long
    double-quoted scalars, the style of every non-ASCII one, at
    different places; they also disagree on when an empty key or one of
    123 to 128 characters is written as a ``?`` key.  Any other data is
    written by ``yaml.safe_dump``, pyyaml's own emitter.
    """
    dumper = getattr(yaml, "CSafeDumper", None)
    if dumper is None or not _printable_ascii(data):
        dumper = yaml.SafeDumper
    return yaml.dump(data, Dumper=dumper, sort_keys=False, width=88)


def _printable_ascii(data) -> bool:
    """Is ``data`` lists and dicts of printable-ASCII strings, with keys of
    1 to 99 characters?"""
    texts = []
    stack = [data]
    while stack:
        x = stack.pop()
        if type(x) is str:
            texts.append(x)
        elif type(x) is list:
            stack += x
        elif type(x) is dict:
            if not all(type(k) is str and 0 < len(k) < 100 for k in x):
                return False
            texts += x
            stack += x.values()
        else:
            return False
    text = "".join(texts)
    return text.isascii() and text.isprintable()


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
