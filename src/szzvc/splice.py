"""Splicing a later version of a file from the one read before it.

Both parsers read a file version as a sequence of elements, Pd records and
the boxes and patchlines of a Max document, and most versions differ from
the one read before them inside a few elements next to each other. Finding
that run from the text alone lets a parser read only it and take the rest
from what it built for the earlier version, an incremental parse in the
sense of Wagner and Graham ("Efficient and Flexible Incremental Parsing",
TOPLAS 1998). This module holds both halves of that splice, which both
parsers share: :func:`changed_run` finds the run of elements, and
:func:`splice_ir` applies the nodes and wires the parser read from it to the
last IR, building again only the nodes the run touched. A whole Max read
goes through :func:`splice_ir` too, as the splice of every element into the
empty document.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .ir import VisualIR, intern_ir


def changed_run(s: str, s_at: int, s_size: int, t: str, t_at: int, t_size: int,
                starts: list[int], ends: list[int]) -> tuple[int, int] | None:
    """Where ``s[s_at:s_at + s_size]`` differs from ``t[t_at:t_at + t_size]``,
    counted in the elements of the latter.

    Element ``k`` of ``t`` runs from ``t_at + starts[k]`` to ``t_at +
    ends[k]``, in order and within the stretch. Returns ``(first, stop)``,
    ``first <= stop``: ``s`` holds ``t``'s stretch from its start through
    the end of element ``first - 1`` at the same offsets, and from the start
    of element ``stop`` through its end shifted by the change in size, with
    ``first`` as large and ``stop`` as small as that allows; None where the
    stretches are equal. Bisection with ``str.startswith`` over the element
    ends finds ``first`` and over the element starts finds ``stop``."""
    if s_size == t_size and s.startswith(t[t_at:t_at + t_size], s_at):
        return None
    shift = s_size - t_size
    # the leading elements: the stretch through the end of element
    # ``first - 1`` is t's
    first, hi = 0, bisect_right(ends, s_size)
    while first < hi:
        mid = (first + hi + 1) // 2
        done = ends[first - 1] if first else 0
        if s.startswith(t[t_at + done:t_at + ends[mid - 1]], s_at + done):
            first = mid
        else:
            hi = mid - 1
    # and the trailing ones, which s holds as much further on as it is
    # longer: the stretch from element ``stop`` to its end is t's
    after = ends[first - 1] if first else 0
    stop, hi = max(first, bisect_left(starts, after - shift)), len(starts)
    while stop < hi:
        mid = (stop + hi) // 2
        done = starts[hi] if hi < len(starts) else t_size
        if s.startswith(t[t_at + starts[mid]:t_at + done], s_at + starts[mid] + shift):
            hi = mid
        else:
            stop = mid + 1
    return first, stop


def splice_ir(ir: VisualIR, nodes: dict, wires: dict, old_nodes: list, new_nodes: list,
              old_wires: list, new_wires: list, shared: dict
              ) -> tuple[VisualIR, dict, dict] | None:
    """``ir`` with the nodes and wires of a changed run replaced, and its
    nodes and wires as :func:`~szzvc.ir.intern_ir` takes them.

    ``nodes`` and ``wires`` are those of ``ir``, as ``intern_ir`` took them
    with the node map ``shared``; neither is changed. The run took away the
    ``(id, (key, contents))`` nodes of ``old_nodes`` and the ``(source id,
    (dest id, outlet, inlet))`` wires of ``old_wires``, and put in those of
    ``new_nodes`` and ``new_wires``; an id in both is a node replaced. Only
    the new nodes and the sources of the changed wires are interned again,
    and a new id puts the nodes back into id order. None where the result
    is no patch: an id that is already taken, a wire to a node that is not
    there, or a wire left pointing at a node that went."""
    if old_nodes or new_nodes:
        nodes = dict(nodes)
        for node_id, _ in old_nodes:
            del nodes[node_id]
        for node_id, node in new_nodes:
            if node_id in nodes:
                return None
            nodes[node_id] = node
    touched: dict[str, list] = {}  # source id -> its wires, as they now are
    for src_id, conn in old_wires:
        if src_id not in touched:
            touched[src_id] = list(wires[src_id])
        touched[src_id].remove(conn)
    for src_id, conn in new_wires:
        if src_id not in nodes or conn[0] not in nodes:
            return None
        if src_id not in touched:
            touched[src_id] = list(wires.get(src_id, ()))
        touched[src_id].append(conn)
    if touched:
        wires = dict(wires)
        for src_id, conns in touched.items():
            if conns:
                wires[src_id] = conns
            else:
                del wires[src_id]
    gone = {node_id for node_id, _ in old_nodes if node_id not in nodes}
    if gone and (not gone.isdisjoint(wires) or any(
            conn[0] in gone for conns in wires.values() for conn in conns)):
        return None
    changed = {node_id for node_id, _ in new_nodes}.union(touched).difference(gone)
    rebuilt = intern_ir(ir.source_language, ir.source_path,
                        {node_id: nodes[node_id] for node_id in changed}, wires,
                        shared).subtrees
    subtrees = dict(ir.subtrees)
    for node_id in gone:
        del subtrees[node_id]
    subtrees.update(rebuilt)
    if not rebuilt.keys() <= ir.subtrees.keys():
        subtrees = {node_id: subtrees[node_id] for node_id in sorted(subtrees)}
    return VisualIR(subtrees, ir.source_language, ir.source_path), nodes, wires
