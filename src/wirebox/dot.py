"""Graphviz DOT rendering for wirings and architectures.

Output is deterministic: nodes and edges appear in port order, box by
box, so the same wiring always renders to the same text.  Inner boxes
become clusters labeled ``name[i]`` with one node per port; every
reference inside a source expression becomes one edge, so a fan-in
table shows every wire it reads.  Constants become small source nodes.
"""

from __future__ import annotations

from .wiring import (Architecture, Box, Const, OuterIn, SourceExpr, Table,
                     Wiring, expr_refs, flatten)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _expr_edges(expr: SourceExpr, dst: str, lines: list[str], consts: list[str]):
    # one edge per distinct reference, in canonical order
    if isinstance(expr, Const):
        cid = f"const{len(consts)}"
        consts.append(cid)
        lines.append(f"  {_quote(cid)} [label={_quote(expr.symbol)} "
                     f"shape=plaintext];")
        lines.append(f"  {_quote(cid)} -> {_quote(dst)};")
        return
    refs = expr_refs(expr) if isinstance(expr, Table) else (expr,)
    styled = " [style=dashed]" if isinstance(expr, Table) else ""
    for ref in refs:
        if isinstance(ref, OuterIn):
            src = f"in:{ref.box}.{ref.port}"
        else:
            src = f"box{ref.box}:out.{ref.port}"
        lines.append(f"  {_quote(src)} -> {_quote(dst)}{styled};")


def _box_cluster(box: Box, i: int, cluster_ns: str, indent: str) -> list[str]:
    lines = [f"{indent}subgraph cluster_{cluster_ns}b{i} {{",
             f"{indent}  label={_quote(f'{box.name}[{i}]')};"]
    for p in box.in_ports:
        lines.append(f"{indent}  {_quote(f'box{i}:in.{p.name}')} "
                     f"[label={_quote(p.name)} shape=box];")
    for p in box.out_ports:
        lines.append(f"{indent}  {_quote(f'box{i}:out.{p.name}')} "
                     f"[label={_quote(p.name)} shape=ellipse];")
    lines.append(f"{indent}}}")
    return lines


def _ports_and_edges(w: Wiring, lines: list[str]):
    # outer port nodes, then one edge per wire, after the inner clusters
    for j, box in enumerate(w.outer):
        for p in box.in_ports:
            lines.append(f"  {_quote(f'in:{j}.{p.name}')} "
                         f"[label={_quote(f'{box.name}.{p.name}')} "
                         f"shape=invhouse];")
        for p in box.out_ports:
            lines.append(f"  {_quote(f'out:{j}.{p.name}')} "
                         f"[label={_quote(f'{box.name}.{p.name}')} "
                         f"shape=house];")
    consts: list[str] = []
    for i, p in w.inner_input_ports():
        _expr_edges(w.in_map[(i, p.name)], f"box{i}:in.{p.name}", lines, consts)
    for j, p in w.outer_output_ports():
        _expr_edges(w.out_map[(j, p.name)], f"out:{j}.{p.name}", lines, consts)


def wiring_dot(w: Wiring, name: str = "wiring") -> str:
    """Render one wiring as a DOT digraph."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    for i, box in enumerate(w.inner):
        lines.extend(_box_cluster(box, i, "", "  "))
    _ports_and_edges(w, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def architecture_dot(arch: Architecture, name: str = "architecture") -> str:
    """Render an architecture as nested clusters with flattened edges.

    Cluster nesting mirrors the tree; leaf clusters are numbered by
    their flat slot and edges come from the flattened wiring, so what
    is drawn is exactly what executes.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  compound=true;"]
    slot = [0]

    def emit(a: Architecture, cluster_ns: str, pos: int, indent: str):
        if a.wiring is None:
            lines.extend(_box_cluster(a.root, slot[0], cluster_ns, indent))
            slot[0] += 1
            return
        lines.append(f"{indent}subgraph cluster_{cluster_ns}g{pos} {{")
        lines.append(f"{indent}  label={_quote(f'{a.root.name}[{pos}]')};")
        for j, child in enumerate(a.children):
            emit(child, f"{cluster_ns}g{pos}", j, indent + "  ")
        lines.append(f"{indent}}}")

    # an atomic architecture is one leaf cluster with no wires
    for j, child in enumerate((arch,) if arch.wiring is None else arch.children):
        emit(child, "", j, "  ")
    if arch.wiring is not None:
        _ports_and_edges(flatten(arch), lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
