"""Deterministic structural canonicalization of gate-level netlists.

The content-addressed cache keys on :func:`~repro.jobs.cache.normalize_circuit_text`,
which is stable under formatting and gate-order churn but *not* under the
rewrites a hostile (or merely different) synthesis flow applies: De Morgan
gate-form changes, XOR expansion, buffer/inverter chains, dead logic, and —
the one pass that defeated the cache outright — opaque net renaming.
``canonicalize`` collapses that whole family to a single representative:

1. **Function recovery through an AIG.** The circuit is built into a
   hash-consed And-Inverter Graph (:mod:`repro.aig`) over a canonical input
   order (sorted input words LSB-first, then leftover inputs by name).
   Strashing plus constant folding erases buffers, double inversions,
   NAND/NOR/XNOR vs AND/OR/XOR+INV choices, and re-associations for free;
   only logic reachable from the outputs is ever rebuilt, which strips dead
   gates.
2. **OR/XOR recovery.** A small covering graph is rebuilt from the AIG in
   which a both-complemented AND becomes an OR node (De Morgan, with the
   complement pushed onto the edge) and the two-AND xor shape — including
   XNORs, which differ only by edge parity — becomes an XOR node. The
   rebuild maintains a strict polarity invariant: *every node's value is
   exactly the function of the net it will be emitted as*, so running
   ``canonicalize`` on its own output reconstructs the identical graph
   (idempotence).
3. **Order-free renaming.** Nodes are numbered level by level, ordered
   within a level by an injective structural signature over already-assigned
   ids — never by AIG node id, which varies with source gate order. Gate
   nets become ``g<id>``; output bits take word-anchored names (bit ``i`` of
   output word ``W`` becomes ``Wi``); primary input names are preserved
   because they carry the word semantics the abstraction keys on.

Canonicalization is purely structural and function-preserving, so by the
paper's uniqueness result (Corollary 4.1: a circuit has exactly one
canonical word-level polynomial) the downstream abstraction is unchanged —
only cheaper, and now shared across every structural variant.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..aig import Aig
from ..aig.from_circuit import circuit_to_aig
from ..circuits import Circuit, GateType

__all__ = ["canonical_input_order", "canonicalize"]

#: Reserved index of the constant-false node in the recovered graph.
_CONST = 0

_GATE_OPS = ("and", "or", "xor")


def canonical_input_order(circuit: Circuit) -> List[str]:
    """Primary inputs in canonical order: sorted words LSB-first, then rest."""
    ordered: List[str] = []
    seen = set()
    for word in sorted(circuit.input_words):
        for bit in circuit.input_words[word]:
            if bit not in seen:
                seen.add(bit)
                ordered.append(bit)
    for net in sorted(circuit.inputs):
        if net not in seen:
            seen.add(net)
            ordered.append(net)
    return ordered


def build_canonical_aig(circuit: Circuit) -> Tuple[Aig, Dict[str, int], List[str]]:
    """AIG of ``circuit`` with inputs created in canonical order.

    Returns ``(aig, net -> literal, ordered input names)``. Two calls on the
    same circuit produce identical node numbering, which is what lets a SAT
    sweep's merge map (keyed by node id) be applied by a later rebuild.
    """
    aig = Aig()
    order = canonical_input_order(circuit)
    input_lits = {net: aig.add_input() for net in order}
    aig, lits = circuit_to_aig(circuit, aig, input_lits)
    return aig, lits, order


def _rebuild(
    circuit: Circuit,
    sweep_canon: Optional[Dict[int, int]] = None,
    prebuilt: Optional[Tuple[Aig, Dict[str, int], List[str]]] = None,
) -> Circuit:
    """Canonical rebuild of ``circuit``, optionally through a fraig merge map.

    ``sweep_canon`` maps AIG nodes onto representative literals (the
    :class:`~repro.aig.sweep.SweepResult` contract); merged nodes are
    resolved to their representatives instead of being re-emitted, which is
    how a SAT sweep shrinks the rebuilt circuit. The map's node ids must
    refer to the AIG ``build_canonical_aig`` constructs for this circuit —
    pass that AIG as ``prebuilt`` to guarantee it (and skip a rebuild).
    """
    aig, lits, order = prebuilt if prebuilt is not None else build_canonical_aig(circuit)

    # ---- recover an or/xor-aware graph from the AIG -------------------------
    # Polarity invariant: a node's value equals the function of the net it is
    # emitted as; complements live only on AND-node edges and in the
    # aig-literal map, so re-canonicalizing the output reproduces this graph.
    ops: List[str] = ["const"]
    args: List[tuple] = [()]
    index: Dict[tuple, int] = {}
    amap: Dict[int, Tuple[int, int]] = {0: (_CONST, 0)}
    input_idx: List[int] = []
    for node in aig.inputs:
        idx = len(ops)
        ops.append("input")
        args.append((node,))
        amap[node] = (idx, 0)
        input_idx.append(idx)

    def resolve(lit: int) -> Tuple[int, int]:
        if sweep_canon:
            lit = sweep_canon.get(lit >> 1, lit & ~1) ^ (lit & 1)
        idx, parity = amap[lit >> 1]
        return idx, parity ^ (lit & 1)

    def intern(op: str, key_args: tuple) -> int:
        key = (op, key_args)
        idx = index.get(key)
        if idx is None:
            idx = len(ops)
            ops.append(op)
            args.append(key_args)
            index[key] = idx
        return idx

    def make_xor(p: Tuple[int, int], q: Tuple[int, int]) -> Tuple[int, int]:
        (ia, ca), (ib, cb) = p, q
        parity = ca ^ cb
        if ia == _CONST:
            return ib, parity
        if ib == _CONST:
            return ia, parity
        if ia == ib:
            return _CONST, parity
        return intern("xor", (min(ia, ib), max(ia, ib))), parity

    def make_and(p: Tuple[int, int], q: Tuple[int, int]) -> Tuple[int, int]:
        (ia, ca), (ib, cb) = p, q
        if ia == _CONST:
            return (ib, cb) if ca else (_CONST, 0)
        if ib == _CONST:
            return (ia, ca) if cb else (_CONST, 0)
        if ia == ib:
            return (ia, ca) if ca == cb else (_CONST, 0)
        if ca and cb:
            # De Morgan: !x & !y == !(x | y) — an OR node with the
            # complement on the edge, so the node keeps positive polarity.
            return intern("or", (min(ia, ib), max(ia, ib))), 1
        children = tuple(sorted(((ia, ca), (ib, cb))))
        return intern("and", children), 0

    for node, fanin in enumerate(aig.fanins):
        if fanin is None:
            continue
        if sweep_canon and node in sweep_canon:
            amap[node] = resolve(node << 1)
            continue
        l0, l1 = fanin
        rec: Optional[Tuple[int, int]] = None
        if (l0 & 1) and (l1 & 1):
            # XOR shape: AND(!x, !y) with x = AND(p, q), y = AND(!p, !q)
            # is p ^ q regardless of how the source spelled it; XNOR is the
            # same node reached through a complemented edge.
            x, y = l0 >> 1, l1 >> 1
            fx, fy = aig.fanins[x], aig.fanins[y]
            if fx is not None and fy is not None and x != y:
                if {fy[0], fy[1]} == {fx[0] ^ 1, fx[1] ^ 1}:
                    rec = make_xor(resolve(fx[0]), resolve(fx[1]))
        if rec is None:
            rec = make_and(resolve(l0), resolve(l1))
        amap[node] = rec

    # ---- resolve outputs and keep only reachable logic ----------------------
    out_nets: Dict[str, None] = dict.fromkeys(circuit.outputs)  # ordered set
    for word in sorted(circuit.output_words):
        out_nets.update(dict.fromkeys(circuit.output_words[word]))
    out_res: Dict[str, Tuple[int, int]] = {
        net: resolve(lits[net]) for net in out_nets if not circuit.is_input(net)
    }

    reachable = set()
    stack = [idx for idx, _comp in out_res.values()]
    while stack:
        idx = stack.pop()
        if idx in reachable:
            continue
        reachable.add(idx)
        if ops[idx] == "and":
            stack.extend(child for child, _comp in args[idx])
        elif ops[idx] in ("or", "xor"):
            stack.extend(args[idx])
    gate_nodes = sorted(i for i in reachable if ops[i] in _GATE_OPS)

    # ---- order-free canonical numbering -------------------------------------
    # Rec indices follow AIG creation order, which shifts with source gate
    # order; ids must not. Number level by level, breaking ties with an
    # injective structural signature over already-numbered children (two
    # distinct interned nodes can't share one, so the sort is total).
    level: Dict[int, int] = {}
    buckets: Dict[int, List[int]] = {}
    for idx in gate_nodes:  # ascending index is already topological
        if ops[idx] == "and":
            kids = [child for child, _comp in args[idx]]
        else:
            kids = args[idx]
        lvl = 1 + max(level.get(child, 0) for child in kids)
        level[idx] = lvl
        buckets.setdefault(lvl, []).append(idx)

    cid: Dict[int, int] = {idx: pos for pos, idx in enumerate(input_idx)}

    def signature(idx: int) -> tuple:
        if ops[idx] == "and":
            return (
                "and",
                tuple(sorted((cid[child], comp) for child, comp in args[idx])),
            )
        return ops[idx], tuple(sorted(cid[child] for child in args[idx]))

    next_cid = len(input_idx)
    for lvl in sorted(buckets):
        bucket = buckets[lvl]
        bucket.sort(key=signature)
        for idx in bucket:
            cid[idx] = next_cid
            next_cid += 1

    # ---- deterministic names -------------------------------------------------
    used = set(circuit.inputs)

    def claim(base: str) -> str:
        name = base
        while name in used:
            name += "_o"
        used.add(name)
        return name

    out_name: Dict[str, str] = {}
    ordered_out: List[Tuple[str, str]] = []  # (canonical name, original net)
    for word in sorted(circuit.output_words):
        for pos, bit in enumerate(circuit.output_words[word]):
            if bit in out_name or circuit.is_input(bit):
                continue
            name = claim(f"{word}{pos}")
            out_name[bit] = name
            ordered_out.append((name, bit))
    for pos, net in enumerate(circuit.outputs):
        if net in out_name or circuit.is_input(net):
            continue
        name = claim(f"o{pos}")
        out_name[net] = name
        ordered_out.append((name, net))

    prefix = "g"
    while any(re.fullmatch(rf"{prefix}\d+(?:_n)*", name) for name in used):
        prefix += "g"

    # An output bit with positive polarity names its driving node directly;
    # further outputs of the same node (and negated/constant bits) get
    # BUF/NOT/CONST wrapper gates.
    claimed: Dict[int, str] = {}
    for name, net in ordered_out:
        idx, comp = out_res[net]
        if comp == 0 and ops[idx] in _GATE_OPS and idx not in claimed:
            claimed[idx] = name

    # ---- emit ---------------------------------------------------------------
    canon = Circuit(circuit.name)
    canon.add_inputs(order)
    for word in sorted(circuit.input_words):
        canon.add_input_word(word, circuit.input_words[word])

    net_of: Dict[int, str] = {idx: order[pos] for pos, idx in enumerate(input_idx)}
    emit_order = sorted(gate_nodes, key=lambda i: cid[i])
    for idx in emit_order:
        net_of[idx] = claimed.get(idx, f"{prefix}{cid[idx]}")
    all_names = used | {net_of[idx] for idx in emit_order}

    inv_of: Dict[int, str] = {}

    def operand(idx: int, comp: int) -> str:
        base = net_of[idx]
        if not comp:
            return base
        name = inv_of.get(idx)
        if name is None:
            name = base + "_n"
            while name in all_names:
                name += "_n"
            all_names.add(name)
            inv_of[idx] = name
            canon.add_gate(name, GateType.NOT, (base,))
        return name

    for idx in emit_order:
        if ops[idx] == "and":
            kids = sorted(args[idx], key=lambda edge: (cid[edge[0]], edge[1]))
            canon.add_gate(
                net_of[idx],
                GateType.AND,
                tuple(operand(child, comp) for child, comp in kids),
            )
        else:
            kids = sorted(args[idx], key=lambda child: cid[child])
            canon.add_gate(
                net_of[idx],
                GateType.OR if ops[idx] == "or" else GateType.XOR,
                tuple(net_of[child] for child in kids),
            )

    for name, net in ordered_out:
        idx, comp = out_res[net]
        if claimed.get(idx) == name:
            continue
        if ops[idx] == "const":
            canon.add_gate(
                name, GateType.CONST1 if comp else GateType.CONST0, ()
            )
        elif comp:
            canon.add_gate(name, GateType.NOT, (net_of[idx],))
        else:
            canon.add_gate(name, GateType.BUF, (net_of[idx],))

    def mapped(net: str) -> str:
        return net if circuit.is_input(net) else out_name[net]

    canon.set_outputs([mapped(net) for net in circuit.outputs])
    for word in sorted(circuit.output_words):
        canon.add_output_word(word, [mapped(bit) for bit in circuit.output_words[word]])
    return canon


def canonicalize(circuit: Circuit) -> Circuit:
    """Canonical structural form of ``circuit`` (deterministic, idempotent).

    The result computes the same function over the same input/output words;
    structural variants — gate-form rewrites, buffer/inverter chains, dead
    logic, gate reordering, and renamed internal nets — all map to the same
    result, hence the same :func:`~repro.jobs.cache.canonical_cache_key`.
    """
    return _rebuild(circuit)
