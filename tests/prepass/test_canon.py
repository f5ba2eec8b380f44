"""Unit tests for the deterministic structural canonicalizer."""

import random

import pytest

from repro.circuits import Circuit, GateType, simulate
from repro.gf import GF2m
from repro.jobs.cache import canonical_cache_key, normalize_circuit_text
from repro.prepass import canonical_input_order, canonicalize
from repro.reveng import obfuscate
from repro.synth import montgomery_multiplier


def _equivalent(a: Circuit, b: Circuit, lanes: int = 64, seed: int = 99) -> bool:
    """Positional output agreement on random bit-parallel stimuli."""
    rng = random.Random(seed)
    stimuli = {net: rng.getrandbits(lanes) for net in sorted(a.inputs)}
    got_a = simulate(a, stimuli, lanes=lanes)
    got_b = simulate(b, stimuli, lanes=lanes)
    return all(
        got_a[na] == got_b[nb] for na, nb in zip(a.outputs, b.outputs)
    )


def _mini(name="mini"):
    c = Circuit(name)
    c.add_inputs(["a", "b", "cin"])
    return c


def test_nand_normalizes_like_and_not():
    nand = _mini("nand_form")
    nand.add_gate("z", GateType.NAND, ["a", "b"])
    nand.set_outputs(["z"])

    explicit = _mini("and_not_form")
    explicit.add_gate("t", GateType.AND, ["a", "b"])
    explicit.add_gate("z", GateType.NOT, ["t"])
    explicit.set_outputs(["z"])

    assert normalize_circuit_text(canonicalize(nand)) == normalize_circuit_text(
        canonicalize(explicit)
    )


def test_nor_and_xnor_normalize_to_gate_plus_inverter_forms():
    pairs = [
        (GateType.NOR, GateType.OR),
        (GateType.XNOR, GateType.XOR),
    ]
    for negated, plain in pairs:
        neg = _mini(f"{negated.value}_form")
        neg.add_gate("z", negated, ["a", "b"])
        neg.set_outputs(["z"])

        pos = _mini(f"{plain.value}_not_form")
        pos.add_gate("t", plain, ["a", "b"])
        pos.add_gate("z", GateType.NOT, ["t"])
        pos.set_outputs(["z"])

        assert normalize_circuit_text(canonicalize(neg)) == normalize_circuit_text(
            canonicalize(pos)
        ), negated.value


def test_buffer_and_double_inverter_chains_collapse():
    clean = _mini("clean")
    clean.add_gate("z", GateType.XOR, ["a", "b"])
    clean.set_outputs(["z"])

    noisy = _mini("noisy")
    noisy.add_gate("b1", GateType.BUF, ["a"])
    noisy.add_gate("b2", GateType.BUF, ["b1"])
    noisy.add_gate("n1", GateType.NOT, ["b"])
    noisy.add_gate("n2", GateType.NOT, ["n1"])
    noisy.add_gate("z", GateType.XOR, ["b2", "n2"])
    noisy.set_outputs(["z"])

    canon_noisy = canonicalize(noisy)
    assert normalize_circuit_text(canonicalize(clean)) == normalize_circuit_text(
        canon_noisy
    )
    assert canon_noisy.num_gates() < noisy.num_gates()


def test_dead_logic_is_stripped():
    c = _mini("deadwood")
    c.add_gate("z", GateType.AND, ["a", "b"])
    c.add_gate("dead1", GateType.XOR, ["a", "cin"])
    c.add_gate("dead2", GateType.OR, ["dead1", "b"])
    c.set_outputs(["z"])

    canon = canonicalize(c)
    assert canon.num_gates() == 1
    assert _equivalent(c, canon)


def test_constant_inputs_fold():
    c = _mini("consts")
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("t1", GateType.AND, ["a", "one"])  # == a
    c.add_gate("t2", GateType.OR, ["t1", "zero"])  # == a
    c.add_gate("z", GateType.XOR, ["t2", "b"])
    c.set_outputs(["z"])

    canon = canonicalize(c)
    assert canon.num_gates() == 1  # single XOR survives
    assert _equivalent(c, canon)


def test_canonicalize_is_idempotent_on_handmade_circuits():
    c = _mini("idem")
    c.add_gate("n", GateType.NAND, ["a", "b"])
    c.add_gate("x", GateType.XNOR, ["n", "cin"])
    c.add_gate("z", GateType.OR, ["x", "a"])
    c.set_outputs(["z"])

    once = canonicalize(c)
    twice = canonicalize(once)
    assert normalize_circuit_text(once) == normalize_circuit_text(twice)
    assert _equivalent(c, once)


def test_words_and_input_names_are_preserved():
    c = Circuit("worded")
    c.add_inputs(["A0", "A1", "B0", "B1"])
    c.add_input_word("A", ["A0", "A1"])
    c.add_input_word("B", ["B0", "B1"])
    c.add_gate("z0", GateType.XOR, ["A0", "B0"])
    c.add_gate("z1", GateType.XOR, ["A1", "B1"])
    c.set_outputs(["z0", "z1"])
    c.add_output_word("Z", ["z0", "z1"])

    canon = canonicalize(c)
    assert list(canon.inputs) == list(c.inputs)
    assert canon.input_words == {"A": ["A0", "A1"], "B": ["B0", "B1"]}
    assert list(canon.output_words) == ["Z"]
    assert len(canon.output_words["Z"]) == 2
    # Output-word bits take word-anchored names: bit i of word Z -> Zi.
    assert canon.output_words["Z"] == ["Z0", "Z1"]
    assert _equivalent(c, canon)


def test_canonical_input_order_words_first_then_leftovers():
    c = Circuit("order")
    c.add_inputs(["x", "B1", "B0", "A0", "A1"])
    c.add_input_word("B", ["B0", "B1"])
    c.add_input_word("A", ["A0", "A1"])
    c.add_gate("z", GateType.AND, ["x", "A0"])
    c.set_outputs(["z"])
    # Sorted words LSB-first, then leftover plain inputs by name.
    assert canonical_input_order(c) == ["A0", "A1", "B0", "B1", "x"]


def test_input_fed_output_survives():
    c = Circuit("passthrough")
    c.add_inputs(["a", "b"])
    c.add_gate("z", GateType.AND, ["a", "b"])
    c.set_outputs(["a", "z"])  # output 0 is the raw input

    canon = canonicalize(c)
    assert len(canon.outputs) == 2
    assert _equivalent(c, canon)


def test_canonical_key_golden_value():
    """Canonical keys must not drift, or every on-disk cache goes cold.

    Pins the key of a k=16 Montgomery multiplier, clean and behind all six
    obfuscation passes stacked; both canonicalize to the same netlist.
    """
    field = GF2m(16)
    clean = montgomery_multiplier(field).flatten()
    stacked = obfuscate(clean, seed=2014).circuit
    golden = "828acc3b909f3b5fe4b65a089282e0790c4a807a114cc8e4bf79cff7beeb63ac"
    assert canonical_cache_key(canonicalize(stacked), field) == golden
    assert canonical_cache_key(canonicalize(clean), field) == golden
