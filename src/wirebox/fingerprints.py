"""Provenance fingerprints: the first 12 hex digits of the SHA-256 of a
canonical text, for a wiring or for a list of component machines.

Equal wirings, and equal machine lists, get equal fingerprints, so an
attack's log names the system each step leaves.  ``attack`` prints one
of each per step, through ``LogEntry.wiring_fp`` and
``LogEntry.components_fp``, which import this module when first read;
no other command computes a fingerprint.
"""

from __future__ import annotations

from typing import Sequence

from . import _kept
from .moore import MooreMachine, render_state
from .wiring import Const, InnerOut, OuterIn, SourceExpr, Wiring


def _digest(text: str) -> str:
    # imported here: loading OpenSSL costs a command that runs no script
    # about 5 ms
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def machine_text(m: MooreMachine) -> str:
    """Deterministic text rendering of a machine, for fingerprints."""
    lines = [f"box {m.box.name}", f"init {render_state(m.init)}"]
    for s in m.states:
        lines.append(f"state {render_state(s)} -> {'|'.join(m.readout[s])}")
    for (s, x) in sorted(m.update, key=lambda k: (render_state(k[0]), k[1])):
        lines.append(
            f"step {render_state(s)} {'|'.join(x)} -> "
            f"{render_state(m.update[(s, x)])}")
    return "\n".join(lines)


def wiring_text(w: Wiring) -> str:
    """A deterministic text rendering of a wiring, for fingerprints."""
    lines = []
    for side, boxes in (("inner", w.inner), ("outer", w.outer)):
        for b in boxes:
            ins = ",".join(f"{p.name}:{'|'.join(p.alphabet)}" for p in b.in_ports)
            outs = ",".join(f"{p.name}:{'|'.join(p.alphabet)}" for p in b.out_ports)
            lines.append(f"{side} {b.name} [{ins}] [{outs}]")
    for label, table in (("in", w.in_map), ("out", w.out_map)):
        for key in sorted(table):
            lines.append(f"{label} {key[0]}.{key[1]} <- {_expr_text(table[key])}")
    return "\n".join(lines)


def _expr_text(expr: SourceExpr) -> str:
    if isinstance(expr, Const):
        return f"const {expr.symbol}"
    if isinstance(expr, OuterIn):
        return f"outer {expr.box}.{expr.port}"
    if isinstance(expr, InnerOut):
        return f"inner {expr.box}.{expr.port}"
    srcs = "; ".join(_expr_text(s) for s in expr.sources)
    rows = ",".join(f"{'|'.join(k)}->{v}" for k, v in expr.entries)
    return f"table [{srcs}] {{{rows}}}"


def fingerprint_wiring(w: Wiring) -> str:
    """The digest of the wiring's canonical text, kept on the wiring."""
    return _kept(w, "_fingerprint", lambda w: _digest(wiring_text(w)))


def fingerprint_components(machines: Sequence[MooreMachine]) -> str:
    """The digest of the machines' canonical texts, each kept on its
    machine: a step changes at most one component, so a script renders
    each machine once."""
    return _digest("\n--\n".join(
        _kept(m, "_canonical_text", machine_text) for m in machines))
