"""Graphviz DOT rendering for wirings.

Output is deterministic: nodes and edges appear in port order, box by
box, so the same wiring always renders to the same text.  Inner boxes
become clusters labeled ``name[i]`` with one node per port; every
reference inside a source expression becomes one edge, so a fan-in
table shows every wire it reads.  Constants become small source nodes.
"""

from __future__ import annotations

from .wiring import Box, Const, OuterIn, SourceExpr, Table, Wiring, expr_refs


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


def _box_cluster(box: Box, i: int) -> list[str]:
    lines = [f"  subgraph cluster_b{i} {{",
             f"    label={_quote(f'{box.name}[{i}]')};"]
    for p in box.in_ports:
        lines.append(f"    {_quote(f'box{i}:in.{p.name}')} "
                     f"[label={_quote(p.name)} shape=box];")
    for p in box.out_ports:
        lines.append(f"    {_quote(f'box{i}:out.{p.name}')} "
                     f"[label={_quote(p.name)} shape=ellipse];")
    lines.append("  }")
    return lines


def wiring_dot(w: Wiring, name: str = "wiring") -> str:
    """Render one wiring as a DOT digraph."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    for i, box in enumerate(w.inner):
        lines.extend(_box_cluster(box, i))
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
    lines.append("}")
    return "\n".join(lines) + "\n"
