import itertools
import random

import pytest

from gradmarket.circuit import MUL, CircuitBuilder, build_norm_circuit, eval_plain
from gradmarket.field import Q


def test_norm_circuit_hand_evaluations():
    c = build_norm_circuit(2, 2)
    # sum of squares 2: (2-1)(2-2) = 0, valid
    out, _ = eval_plain(c, [1, 1])
    assert out == 0
    # sum of squares 4: (4-1)(4-2) = 6, invalid
    out, _ = eval_plain(c, [2, 0])
    assert out == 6


def test_norm_circuit_mul_count():
    # m squares plus rho-1 chain products
    c = build_norm_circuit(2, 2)
    assert c.num_mul == 3
    for m, rho in [(1, 1), (3, 5), (4, 2)]:
        assert build_norm_circuit(m, rho).num_mul == m + rho - 1
        assert build_norm_circuit(m, rho, accept_zero=True).num_mul == m + rho


def test_norm_circuit_zero_vector():
    # without the carve-out a zero vector is rejected: output (0-1) = -1
    c = build_norm_circuit(1, 1)
    out, _ = eval_plain(c, [0])
    assert out == Q - 1
    # the contract variant prepends the (S - 0) factor
    cz = build_norm_circuit(1, 1, accept_zero=True)
    out, _ = eval_plain(cz, [0])
    assert out == 0


def test_output_is_final_mul_gate():
    c = build_norm_circuit(3, 4, accept_zero=True)
    muls = [gid for gid, g in enumerate(c.gates) if g.kind == MUL]
    assert len(muls) == c.num_mul
    assert c.output == muls[-1]


def test_single_mul_trace():
    b = CircuitBuilder(2)
    out = b.mul(b.input(0), b.input(1))
    c = b.build(out)
    value, trace = eval_plain(c, [3, 4])
    assert value == 12
    assert (trace.left, trace.right) == ([3], [4])


def test_add_only_circuit_has_empty_trace():
    b = CircuitBuilder(2)
    out = b.add(b.input(0), b.input(1))
    c = b.build(out)
    value, trace = eval_plain(c, [3, 4])
    assert value == 7
    assert len(trace) == 0


def test_eval_arity_mismatch():
    c = build_norm_circuit(2, 1)
    with pytest.raises(ValueError):
        eval_plain(c, [1, 2, 3])


def test_norm_circuit_against_integer_oracle():
    """Exhaustive small-range check: zero output exactly when the true
    integer sum of squares falls in 1..rho (and the carve-out adds 0)."""
    for m in (1, 2, 3):
        for rho in (1, 3, 7, 20):
            plain = build_norm_circuit(m, rho)
            carved = build_norm_circuit(m, rho, accept_zero=True)
            for entries in itertools.product(range(5), repeat=m):
                total = sum(e * e for e in entries)
                out, trace = eval_plain(plain, list(entries))
                assert (out == 0) == (1 <= total <= rho), (entries, rho)
                assert len(trace) == m + rho - 1
                out_c, trace_c = eval_plain(carved, list(entries))
                assert (out_c == 0) == (total <= rho)
                assert len(trace_c) == m + rho


def test_negative_embeddings_square_correctly():
    # (q - v)^2 = v^2 mod q, so signed values validate by magnitude
    c = build_norm_circuit(2, 8, accept_zero=True)
    out, _ = eval_plain(c, [Q - 2, 1])  # (-2)^2 + 1 = 5 <= 8
    assert out == 0
    out, _ = eval_plain(c, [Q - 3, 0])  # 9 > 8
    assert out != 0


def test_trace_products_hold():
    rng = random.Random(4)
    c = build_norm_circuit(3, 6, accept_zero=True)
    for _ in range(20):
        inputs = [rng.randrange(10) for _ in range(3)]
        out, trace = eval_plain(c, inputs)
        # the m square gates read each input twice
        assert trace.left[:3] == trace.right[:3] == inputs
        # each chain gate's left input is the previous gate's product
        products = [u * v % Q for u, v in zip(trace.left, trace.right)]
        assert trace.left[4:] == products[3:-1]
        assert out == products[-1]
