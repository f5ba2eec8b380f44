"""The harness workloads: seeded inputs, the op each input drives, its oracle.

Each workload has a generator and an op builder. The generator runs once,
untimed, in its own process: from ``--seed`` alone it produces a *plan* — the
fields the workload touches and one or more passes of op specs (netlist
text, or circuits for the ops that take circuits). Each pass runs in a
measuring process of its own, which turns the pass's specs into
:class:`Op` objects before it starts the clock.

Oracles never use the abstraction under test. An equivalence verdict is
checked against the known answer of the pair (both sides are multipliers
by construction, or a mutant shown different by simulation when it was
generated); a canonical polynomial is compared with ``A*B`` built directly
in its ring; a counterexample is re-simulated on the submitted netlists.

Modules only the generators use (``repro.synth``, ``repro.reveng``) are
imported inside them, so the measuring process never loads them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import core
from repro.circuits import (
    GateType,
    HierarchicalCircuit,
    from_verilog,
    simulate_words,
    substitute_gate_type,
    to_verilog,
)
from repro.gf import GF2m
from repro.jobs.cache import CanonicalPolyCache
from repro.jobs.executor import run_verify

#: Field sizes per workload. flat_verify stops at k=163 and paper_algebra at
#: k=283 so a 20-second round holds two passes or more: k=233 would add
#: 6.3 s to every flat_verify pass, and k=409 would add 6.3 s of generation
#: plus up to 6.3 s per paper_algebra pass.
FLAT_VERIFY_K = (64, 96, 128, 163)
PAPER_ALGEBRA_K = (163, 233, 283)
STREAM_K = (32, 48, 64)

#: bug_hunt field sizes -> Case-2 mutants per pass. Two at k=24 make the
#: k=24 Case-2 class 2 of the pass's 13 ops, so the 90th percentile lands
#: inside that class rather than on the boundary between two classes.
BUG_HUNT_CASE2 = {8: 1, 12: 1, 16: 1, 24: 2}

#: Distinct bug_hunt passes generated per run; later passes reuse them.
BUG_HUNT_PASSES = 8


@dataclass
class Op:
    """One timed call into the program, plus the oracle for its answer."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _reencode(circuit, rng: random.Random):
    """Same design, new text: opaque internal net names, shuffled gate order."""
    from repro.reveng.obfuscate import obfuscate

    return obfuscate(circuit, passes=["rename", "shuffle"], rng=rng).circuit


def _verify_spec(field: GF2m, spec, impl, role: Optional[str] = None) -> Dict:
    """A verify op on an equivalent pair; ``role`` marks a cache-stream op."""
    return {
        "kind": "verify",
        "k": field.k,
        "modulus": field.modulus,
        "spec": to_verilog(spec),
        "impl": to_verilog(impl),
        "role": role,
    }


# -- generators -----------------------------------------------------------------


def gen_flat_verify(seed: int) -> Dict:
    """Mastrovito spec against the flattened Montgomery impl, per field size."""
    from repro.synth import mastrovito_multiplier, montgomery_multiplier

    rng = random.Random(seed)
    ops = []
    for k in FLAT_VERIFY_K:
        field = GF2m(k)
        spec = _reencode(mastrovito_multiplier(field), rng)
        impl = _reencode(montgomery_multiplier(field).flatten(), rng)
        ops.append(_verify_spec(field, spec, impl))
    return {"fields": _fields(ops), "passes": [ops]}


def gen_paper_algebra(seed: int) -> Dict:
    """Table 1 (flat Mastrovito) and Table 2 (hierarchical Montgomery) inputs.

    These are the paper's designs over the NIST moduli, and the seed does
    not change them: re-encoding them per seed would add 5.7 s of
    generation to every run at these sizes.
    """
    from repro.synth import mastrovito_multiplier, montgomery_multiplier

    del seed
    ops = []
    for k in PAPER_ALGEBRA_K:
        field = GF2m(k)
        ops.append(_design_spec("table1", field, mastrovito_multiplier(field)))
        ops.append(_design_spec("table2", field, montgomery_multiplier(field)))
    return {"fields": _fields(ops), "passes": [ops], "plane": True}


def _design_spec(kind: str, field: GF2m, design) -> Dict:
    return {"kind": kind, "k": field.k, "modulus": field.modulus, "design": design}


def _bug_sites(spec) -> Dict[str, List[str]]:
    """Mutation sites of a Mastrovito multiplier, by kind.

    ``and`` and ``xor`` sites make the overhead class (an AND-gate
    substitution, or XOR->XNOR): the mutant differs from the spec by a
    constant or by terms linear in the input bits, so its abstraction costs
    what a correct one does.

    ``leaf`` sites make the Case-2 class: a leaf XOR (both inputs partial
    products ``pp_i_j``) turned into AND or OR. The difference holds one
    product of four input bits, and Case 2 expands it through the dual
    basis; that is the work the tail of this workload measures. Partial
    products on bit 0 are left out: bit 0's coordinate polynomial is the
    densest, and those sites cost 3x the rest of the class at k=16, which
    would turn a seed's draw into a cost swing.
    """

    def bits(net: str) -> Optional[tuple]:
        match = re.fullmatch(r"pp_(\d+)_(\d+)", net)
        return (int(match[1]), int(match[2])) if match else None

    sites: Dict[str, List[str]] = {"and": [], "xor": [], "leaf": []}
    for gate in spec.gates:
        if gate.gate_type is GateType.AND:
            sites["and"].append(gate.output)
        elif gate.gate_type is GateType.XOR:
            sites["xor"].append(gate.output)
            products = [bits(net) for net in gate.inputs]
            if len(products) == 2 and all(p and 0 not in p for p in products):
                sites["leaf"].append(gate.output)
    return sites


def _differs(spec, mutant, k: int, rng: random.Random, lanes: int = 256) -> bool:
    stimuli = {w: [rng.randrange(1 << k) for _ in range(lanes)] for w in ("A", "B")}
    return simulate_words(spec, stimuli)["Z"] != simulate_words(mutant, stimuli)["Z"]


def gen_bug_hunt(seed: int) -> Dict:
    """Spec against single-gate mutants: per-request overhead plus a Case-2 tail.

    Each pass holds, at every k, one AND-gate substitution and one
    XOR->XNOR flip (the overhead class), plus the Case-2 mutants of
    :data:`BUG_HUNT_CASE2`. Every mutation in these classes changes the
    multiplier's function, and simulation confirms it before a mutant is
    accepted as an input.
    """
    from repro.synth import mastrovito_multiplier

    rng = random.Random(seed)
    specs = {}
    for k in BUG_HUNT_CASE2:
        field = GF2m(k)
        spec = mastrovito_multiplier(field)
        specs[k] = (field, spec, to_verilog(spec), _bug_sites(spec))
    passes = []
    for _ in range(BUG_HUNT_PASSES):
        ops = []
        for k, case2_mutants in BUG_HUNT_CASE2.items():
            field, spec, spec_text, sites = specs[k]
            draws = [
                ("and", [GateType.OR, GateType.XOR, GateType.NAND]),
                ("xor", [GateType.XNOR]),
            ] + [("leaf", [GateType.AND, GateType.OR])] * case2_mutants
            for site_kind, choices in draws:
                net = rng.choice(sites[site_kind])
                mutant, mutation = substitute_gate_type(spec, net, rng.choice(choices))
                if not _differs(spec, mutant, k, rng):
                    raise ValueError(f"mutant {mutation} computes the spec's function")
                ops.append(
                    {
                        "kind": "bug",
                        "k": k,
                        "modulus": field.modulus,
                        "spec": spec_text,
                        "impl": to_verilog(mutant),
                        "mutation": str(mutation),
                    }
                )
        passes.append(ops)
    return {"fields": _fields(passes[0]), "passes": passes}


def gen_regression_stream(seed: int) -> Dict:
    """A verify stream against one cold cache: writes, repeats and variants.

    Six pairs: at each k a Montgomery impl over the lowest-weight modulus
    and a Karatsuba impl over the next one (so no two pairs share a spec).
    Each pair is submitted four times: new (a write), two exact repeats
    (reads) and one variant that a single obfuscation pass re-encodes (a
    canonical-key read); pair i's variant uses obfuscation pass i. The seed
    interleaves the 24 submissions, each pair's write first, and drives the
    random choices inside the obfuscation passes. Which modulus, impl and
    pass each pair gets stays fixed, because those move cost: the modulus
    alone moves a k=64 Montgomery verify between 0.37 s and 0.87 s.
    """
    from repro.reveng.obfuscate import OBFUSCATION_PASSES, obfuscate
    from repro.synth import karatsuba_multiplier, mastrovito_multiplier, montgomery_multiplier

    rng = random.Random(seed)
    pairs = []
    for k in STREAM_K:
        first, second = (GF2m(k, modulus) for modulus in _lowest_weight_moduli(k, 2))
        for field, impl in (
            (first, montgomery_multiplier(first).flatten()),
            (second, karatsuba_multiplier(second)),
        ):
            pairs.append((field, mastrovito_multiplier(field), impl))
    obfuscations = list(OBFUSCATION_PASSES)

    tokens = [index for index in range(len(pairs)) for _ in range(4)]
    rng.shuffle(tokens)
    later_roles = {index: ["repeat", "repeat", "variant"] for index in range(len(pairs))}
    for roles in later_roles.values():
        rng.shuffle(roles)
    seen = set()
    ops = []
    for index in tokens:
        field, spec, impl = pairs[index]
        if index not in seen:
            seen.add(index)
            role = "new"
        else:
            role = later_roles[index].pop()
        if role == "variant":
            impl = obfuscate(impl, passes=[obfuscations[index]], rng=rng).circuit
        ops.append(_verify_spec(field, spec, impl, role))
    return {"fields": _fields(ops), "passes": [ops], "cache": True}


def _lowest_weight_moduli(k: int, count: int) -> List[int]:
    from repro.gf import irreducible_polynomials

    moduli = []
    for modulus in irreducible_polynomials(k):
        moduli.append(modulus)
        if len(moduli) == count:
            return moduli
    raise ValueError(f"fewer than {count} irreducible polynomials of degree {k}")


def _fields(ops: List[Dict]) -> List[List[int]]:
    return sorted({(op["k"], op["modulus"]) for op in ops})


GENERATORS = {
    "flat_verify": gen_flat_verify,
    "paper_algebra": gen_paper_algebra,
    "bug_hunt": gen_bug_hunt,
    "regression_stream": gen_regression_stream,
}


# -- ops --------------------------------------------------------------------------


def build_pass(plan: Dict, index: int, scratch: Path) -> List[Op]:
    """The ops of pass ``index`` (passes beyond the plan's reuse it cyclically).

    Runs untimed. A workload that uses the cache gets a cold cache
    directory in ``scratch``, so every pass replays the same write/read mix.
    """
    specs = plan["passes"][index % len(plan["passes"])]
    cache = CanonicalPolyCache(scratch / "cache") if plan.get("cache") else None
    return [_BUILDERS[spec["kind"]](spec, cache) for spec in specs]


def entry_modules(plan: Dict) -> List[str]:
    """The program modules whose functions the plan's ops call."""
    return sorted({_ENTRY_MODULE[spec["kind"]] for spec in plan["passes"][0]})


def _verify_params(spec: Dict) -> Dict:
    """``run_verify`` parameters: the pair as streamed netlist bodies."""
    return {
        "k": spec["k"],
        "modulus": spec["modulus"],
        "spec_text": spec["spec"],
        "impl_text": spec["impl"],
    }


def _build_verify(spec: Dict, cache) -> Op:
    params = _verify_params(spec)
    role = spec["role"]

    def check(record) -> Optional[str]:
        if record["verdict"] != "equivalent":
            return f"verdict {record['verdict']!r} on an equivalent pair"
        if role in ("repeat", "variant"):
            if not (record["spec_cache_hit"] and record["impl_cache_hit"]):
                return f"{role} submission missed the cache"
        return None

    label = f"verify k={spec['k']}" + (f" {role}" if role else "")
    return Op(label, lambda: run_verify(params, cache=cache), check)


def _product_error(polynomial, ring) -> Optional[str]:
    if polynomial != ring.var("A") * ring.var("B"):
        return f"polynomial {str(polynomial)[:80]!r} is not A*B"
    return None


def _build_table1(spec: Dict, cache) -> Op:
    field = GF2m(spec["k"], spec["modulus"])
    # A clone carries none of the per-object memos (topological order,
    # packed cone slices) the generator may have left on the pickled design.
    circuit = spec["design"].clone()

    def check(result) -> Optional[str]:
        return _product_error(result.polynomial, result.ring)

    return Op(
        f"table1 k={spec['k']}",
        lambda: core.extract_canonical(circuit, field, jobs=0),
        check,
    )


def _fresh_hierarchy(design: HierarchicalCircuit) -> HierarchicalCircuit:
    copy = HierarchicalCircuit(design.name, design.k)
    for word in design.input_words:
        copy.add_input_word(word)
    for block in design.blocks:
        copy.add_block(
            block.name, block.circuit.clone(), block.input_bindings, block.output_bindings
        )
    copy.set_output_words(design.output_words)
    return copy


def _build_table2(spec: Dict, cache) -> Op:
    field = GF2m(spec["k"], spec["modulus"])
    hierarchy = _fresh_hierarchy(spec["design"])

    def check(result) -> Optional[str]:
        return _product_error(result.polynomials["G"], result.ring)

    return Op(
        f"table2 k={spec['k']}",
        lambda: core.abstract_hierarchy(hierarchy, field),
        check,
    )


def _build_bug(spec: Dict, cache) -> Op:
    params = _verify_params(spec)

    def check(record) -> Optional[str]:
        if record["verdict"] != "not_equivalent":
            return f"verdict {record['verdict']!r} on mutant {spec['mutation']}"
        point = record["counterexample"]
        if not point:
            return "no counterexample"
        stimuli = {word: [value] for word, value in point.items()}
        spec_z = simulate_words(from_verilog(spec["spec"]), stimuli)
        impl_z = simulate_words(from_verilog(spec["impl"]), stimuli)
        if spec_z == impl_z:
            return f"counterexample {point} does not separate the netlists"
        return None

    return Op(f"bug k={spec['k']}", lambda: run_verify(params), check)


_BUILDERS = {
    "verify": _build_verify,
    "table1": _build_table1,
    "table2": _build_table2,
    "bug": _build_bug,
}

_ENTRY_MODULE = {
    "verify": "repro.jobs.executor",
    "table1": "repro.core",
    "table2": "repro.core",
    "bug": "repro.jobs.executor",
}
