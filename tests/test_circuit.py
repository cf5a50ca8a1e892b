import itertools
import math
import random

import pytest

from gradmarket import circuit
from gradmarket.circuit import (
    LIN,
    MUL,
    Circuit,
    CircuitBuilder,
    Gate,
    build_norm_circuit,
    eval_plain,
)
from gradmarket.field import Q


def _expected_num_mul(m, rho, accept_zero):
    """m squares, k - 1 powers of S and ceil(d/k) - 1 block products for
    d roots in blocks of k = ceil(sqrt(d))."""
    d = rho + 1 if accept_zero else rho
    k = math.isqrt(d - 1) + 1
    return m + (k - 1) + (-(-d // k) - 1)


def _unary_product(inputs, rho, accept_zero):
    s = sum(x * x for x in inputs) % Q
    out = 1
    for j in range(0 if accept_zero else 1, rho + 1):
        out = out * (s - j) % Q
    return out


def test_norm_circuit_hand_evaluations():
    c = build_norm_circuit(2, 2)
    # sum of squares 2: (2-1)(2-2) = 0, valid
    out, _ = eval_plain(c, [1, 1])
    assert out == 0
    # sum of squares 4: (4-1)(4-2) = 6, invalid
    out, _ = eval_plain(c, [2, 0])
    assert out == 6


def test_norm_circuit_mul_count():
    # m squares, then about 2 sqrt(rho) multiplications for the roots
    c = build_norm_circuit(2, 2)  # d = 2: k = 2, one block
    assert c.num_mul == 3
    assert build_norm_circuit(3, 1).num_mul == 3  # d = 1: no power, no product
    for m, rho in [(1, 1), (3, 5), (4, 2), (2, 130), (48, 448)]:
        for accept_zero in (False, True):
            k = math.isqrt(rho if accept_zero else rho - 1) + 1  # ceil(sqrt(d))
            M = build_norm_circuit(m, rho, accept_zero=accept_zero).num_mul
            assert M == _expected_num_mul(m, rho, accept_zero)
            assert M <= m + 2 * k - 2
    # the deep-proof circuit: 48 + 2 * ceil(sqrt(449)) - 2 = 90 at most
    assert build_norm_circuit(48, 448, accept_zero=True).num_mul == 89


def test_norm_circuit_gate_count():
    # one lin gate for S and one per block besides the multiplications
    for m, rho in [(1, 1), (3, 5), (4, 2), (2, 130)]:
        for accept_zero in (False, True):
            d = rho + 1 if accept_zero else rho
            blocks = -(-d // (math.isqrt(d - 1) + 1))
            c = build_norm_circuit(m, rho, accept_zero=accept_zero)
            assert len(c.gates) == c.num_mul + 1 + blocks
    # the deep-proof, wide-commit and train-adversarial circuits
    for m, rho, gates in [(48, 448, 111), (40, 64, 64), (16, 128, 49)]:
        assert len(build_norm_circuit(m, rho, accept_zero=True).gates) == gates


def test_field_ops_counts_muls_and_lin_terms():
    # the S gate has m terms and the block gates d terms between them
    for m, rho in [(1, 1), (3, 5), (4, 2), (48, 106), (2, 130)]:
        for accept_zero in (False, True):
            d = rho + 1 if accept_zero else rho
            c = build_norm_circuit(m, rho, accept_zero=accept_zero)
            assert c.field_ops == c.num_mul + m + d
    b = CircuitBuilder(2)
    s = b.lin([(0, 1), (1, 2)], 5)
    c = b.build(b.mul(s, b.lin([(s, 3)])))
    assert c.field_ops == 4


def test_builder_rejects_wires_that_do_not_exist():
    # an operand or output that is a later or out-of-range wire would make
    # eval_plain and snip.server_eval raise IndexError
    with pytest.raises(ValueError):
        CircuitBuilder(1).mul(0, 5)
    with pytest.raises(ValueError):
        CircuitBuilder(1).build(7)
    b = CircuitBuilder(1)
    with pytest.raises(ValueError):
        b.mul(0, 1)  # wire 1 would be this gate's own output
    with pytest.raises(ValueError):
        b.lin([(0, 1), (-1, 1)])
    assert b.gates == []
    out = b.mul(0, 0)
    with pytest.raises(ValueError):
        b.build(out + 1)
    assert eval_plain(b.build(out), [3])[0] == 9


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
    muls = [c.num_inputs + gid for gid, g in enumerate(c.gates) if g.kind == MUL]
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
    out = b.lin([(b.input(0), 1), (b.input(1), 1)])
    c = b.build(out)
    value, trace = eval_plain(c, [3, 4])
    assert value == 7
    assert len(trace) == 0


def test_eval_arity_mismatch():
    c = build_norm_circuit(2, 1)
    with pytest.raises(ValueError):
        eval_plain(c, [1, 2, 3])
    # a gate of any kind but mul and lin is refused
    with pytest.raises(ValueError):
        eval_plain(Circuit(1, (Gate("cmul", a=0, value=3),), 1), [1])


def test_norm_circuit_against_integer_oracle():
    """Exhaustive small-range check: zero output exactly when the true
    integer sum of squares falls in 1..rho (and the carve-out adds 0).
    The rho values put d (rho, or rho + 1 with the carve-out) at block
    boundaries: d = 2, perfect squares, k^2 +- 1, and several blocks."""
    for m in (1, 2, 3):
        for rho in (1, 2, 3, 7, 8, 9, 10, 15, 16, 17, 20, 24, 25, 26, 130):
            plain = build_norm_circuit(m, rho)
            carved = build_norm_circuit(m, rho, accept_zero=True)
            for entries in itertools.product(range(8), repeat=m):
                total = sum(e * e for e in entries)
                out, trace = eval_plain(plain, list(entries))
                assert (out == 0) == (1 <= total <= rho), (entries, rho)
                assert len(trace) == _expected_num_mul(m, rho, False)
                out_c, trace_c = eval_plain(carved, list(entries))
                assert (out_c == 0) == (total <= rho)
                assert len(trace_c) == _expected_num_mul(m, rho, True)


def test_norm_circuit_output_is_the_unary_product():
    """The blocked circuit computes prod (S - j) mod q exactly, for any field
    input, including inputs near +-(q-1)/2 whose sum of squares wraps mod q,
    so the predicate is the unary one."""
    rng = random.Random(18)
    half = (Q - 1) // 2
    for m, rho in [(1, 1), (2, 2), (3, 8), (2, 15), (3, 24), (4, 130)]:
        for accept_zero in (False, True):
            c = build_norm_circuit(m, rho, accept_zero=accept_zero)
            draws = [[rng.randrange(Q) for _ in range(m)] for _ in range(10)]
            draws += [[half - rng.randrange(4) for _ in range(m)] for _ in range(5)]
            draws += [[(half + 1 + rng.randrange(4)) % Q for _ in range(m)] for _ in range(5)]
            for inputs in draws:
                out, _ = eval_plain(c, inputs)
                assert out == _unary_product(inputs, rho, accept_zero), (m, rho, inputs)


def test_lin_gate_evaluates_locally():
    b = CircuitBuilder(2)
    affine = b.lin([(b.input(0), -3), (b.input(1), 1)], 1)
    assert affine == 2  # gate 0 drives the wire after the two inputs
    c = b.build(b.lin([(affine, 2)]))
    value, trace = eval_plain(c, [5, 4])
    assert value == 2 * (1 - 15 + 4) % Q
    assert len(trace) == 0 and c.num_mul == 0
    # the builder reduces coefficients and constants mod q
    assert c.gates == (
        Gate(LIN, terms=((0, Q - 3), (1, 1)), value=1),
        Gate(LIN, terms=((2, 2),), value=0),
    )
    assert (c.num_inputs, c.output) == (2, 3)
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(1), b.input(0)))
    assert c.gates == (Gate(MUL, a=1, b=0),)


def test_negative_embeddings_square_correctly():
    # (q - v)^2 = v^2 mod q, so signed values validate by magnitude
    c = build_norm_circuit(2, 8, accept_zero=True)
    out, _ = eval_plain(c, [Q - 2, 1])  # (-2)^2 + 1 = 5 <= 8
    assert out == 0
    out, _ = eval_plain(c, [Q - 3, 0])  # 9 > 8
    assert out != 0


def test_trace_products_hold():
    rng = random.Random(4)
    m, rho = 3, 15  # d = 16 roots: k = 4, three powers, four blocks
    c = build_norm_circuit(m, rho, accept_zero=True)
    assert any(g.kind == LIN for g in c.gates)
    for _ in range(20):
        inputs = [rng.randrange(10) for _ in range(m)]
        out, trace = eval_plain(c, inputs)
        # the m square gates read each input twice
        assert trace.left[:m] == trace.right[:m] == inputs
        products = [u * v % Q for u, v in zip(trace.left, trace.right)]
        S = sum(products[:m]) % Q
        # the k - 1 power gates each multiply the previous power by S
        assert trace.right[m:m + 3] == [S] * 3
        assert trace.left[m:m + 3] == [S, *products[m:m + 2]]
        # each block product's left input is the previous product
        assert trace.left[m + 4:] == products[m + 3:-1]
        assert out == products[-1]


def test_norm_circuit_is_built_once_per_bound():
    circuit._norm_circuit.cache_clear()
    a = build_norm_circuit(3, 10, accept_zero=True)
    # the same bound, however its arguments are spelled, is the same object
    assert build_norm_circuit(3, 10, True) is a
    assert build_norm_circuit(3, 10, accept_zero=1) is a
    plain = build_norm_circuit(3, 10)
    assert build_norm_circuit(3, 10, accept_zero=False) is plain and plain is not a
    # a third bound evicts the least recently used one, which is rebuilt equal
    build_norm_circuit(3, 11, accept_zero=True)
    rebuilt = build_norm_circuit(3, 10, accept_zero=True)
    assert rebuilt is not a and rebuilt == a
    assert circuit._norm_circuit.cache_info().currsize == 2
    # an invalid bound still raises on every call and is not cached
    for _ in range(2):
        with pytest.raises(ValueError):
            build_norm_circuit(0, 10)
