"""Graphviz rendering of an index with its pointer overlays.

Tree edges carry their label and are listed per node oldest first,
suffix pointers are dashed, and reach pointers (one ``compute_mrp`` sweep,
no augmentation) that leave their own node are drawn as a bold gray edge
tagged with the text position they belong to. Output is byte-identical
across runs for the same index.
"""

from __future__ import annotations

from .augment import compute_mrp
from .heap import ROOT, PPHIndex


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(idx: PPHIndex, v: int) -> str:
    if v == ROOT:
        return "root"
    secondary = idx.secondaries.get(v)
    if secondary is None:
        return str(v)
    return f"{v}/{secondary}"


def to_dot(idx: PPHIndex) -> str:
    """Render the index and its reach pointers as DOT text."""
    out = [
        "digraph pheap {",
        "  node [shape=circle, fontsize=10];",
    ]
    for v in range(idx.node_count):
        out.append(f'  n{v} [label="{_escape(_node_label(idx, v))}"];')
    for v in range(idx.node_count):
        for label, ch in idx.child_map(v).items():
            out.append(f'  n{v} -> n{ch} [label="{_escape(str(label))}"];')
    for v in range(1, idx.node_count):
        out.append(f"  n{v} -> n{idx.suffixes[v]} [style=dashed, constraint=false];")
    # a secondary reaches the node that stores it and a leaf's primary
    # the leaf, so only the primary v of an internal node v can leave it
    for v, target in zip(range(1, idx.node_count), compute_mrp(idx)):
        if target != v:
            out.append(
                f'  n{v} -> n{target} '
                f'[style=bold, color=gray50, constraint=false, label="{v}"];')
    out.append("}")
    return "\n".join(out) + "\n"
