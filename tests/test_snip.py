import hashlib
import random

import pytest

from gradmarket import field, snip
from gradmarket.circuit import CircuitBuilder, build_norm_circuit, eval_plain
from gradmarket.field import Q
from gradmarket.shamir import ShareVector, robust_recon_scalar, ss_recon, ss_share


def _run_protocol(packages, circ, r, T, corrupt_servers=(), corrupt_rng=None):
    """Drive the two-round identity test; returns the per-server verdicts."""
    lies = {i: (corrupt_rng.randrange(Q), corrupt_rng.randrange(Q)) for i in corrupt_servers}
    return snip.identity_test(packages, circ, r, T, lies)


def _contract_view(verdicts, T):
    ident = robust_recon_scalar([v.identity_share for v in verdicts], T)
    out = robust_recon_scalar([v.output_share for v in verdicts], T)
    return ident, out


def test_prove_single_mul_constant_h():
    b = CircuitBuilder(2)
    b_out = b.mul(b.input(0), b.input(1))
    circ = b.build(b_out)
    rng = random.Random(1)
    f, g, h = snip.compute_h(circ, [3, 4])
    assert f == [3] and g == [4] and h == [12]
    packages = snip.prove([3, 4], circ, 1, 3, rng)
    assert all(len(p.h_coeff_shares) == 1 for p in packages)
    # the single h value is h(1) = 12, and h is the constant 12, so every
    # server's share of h(r) is a share of 12 at any r
    shares = [ShareVector(p.index, p.h_coeff_shares) for p in packages]
    assert ss_recon(shares[:2], 1) == [12]
    r_shares = [
        ShareVector(p.index, (snip.server_round1(p, circ, 77).h_r_share,))
        for p in packages
    ]
    assert ss_recon(r_shares[:2], 1) == ss_recon(r_shares[1:], 1) == [12]


def test_h_reconstructs_trace_products():
    rng = random.Random(2)
    circ = build_norm_circuit(3, 5, accept_zero=True)
    inputs = [2, 0, 1]
    _, trace = eval_plain(circ, inputs)
    M = circ.num_mul
    packages = snip.prove(inputs, circ, 2, 6, rng)
    assert all(len(p.h_coeff_shares) == 2 * M - 1 for p in packages)
    # reconstruct each value h(t) from T+1 packages
    h = []
    for j in range(2 * M - 1):
        value_shares = [ShareVector(p.index, (p.h_coeff_shares[j],)) for p in packages[:3]]
        h.append(ss_recon(value_shares, 2)[0])
    for t, (u, v) in enumerate(zip(trace.left, trace.right), start=1):
        assert h[t - 1] == field.mul(u, v)
    # oracle: the coefficient-form product of the interpolated f and g
    f = field.poly_interpolate([(t, u) for t, u in enumerate(trace.left, start=1)])
    g = field.poly_interpolate([(t, v) for t, v in enumerate(trace.right, start=1)])
    fg = field.poly_mul(f, g)
    assert h == [field.poly_eval(fg, t) for t in range(1, 2 * M)]


def test_compute_h_golden_digest():
    # M = 496, 991 values of h. The digest was recorded with the per-point
    # barycentric extension; any exact extension of f and g reproduces it.
    circ = build_norm_circuit(48, 448, accept_zero=True)
    rng = random.Random(4)
    inputs = [rng.randrange(-3, 4) % Q for _ in range(48)]
    h = snip.compute_h(circ, inputs)[2]
    assert len(h) == 991
    digest = hashlib.sha256(b"".join(field.to_bytes(v) for v in h)).hexdigest()
    assert digest == "9d7e69f8da0700039571eb9d6bf3d5da3535eb47ab318c4824963ba8dc46d6d6"


def test_beaver_triple_reconstructs_consistently():
    rng = random.Random(3)
    circ = build_norm_circuit(2, 3, accept_zero=True)
    packages = snip.prove([1, 1], circ, 1, 4, rng)
    abc = []
    for pos in range(3):
        shares = [ShareVector(p.index, (p.triple[pos],)) for p in packages[:2]]
        abc.append(ss_recon(shares, 1)[0])
    a, b, c = abc
    assert field.mul(a, b) == c


def test_server_eval_reconstructs_wire_values():
    rng = random.Random(4)
    b = CircuitBuilder(2)
    out = b.mul(b.input(0), b.input(1))
    circ = b.build(out)
    packages = snip.prove([5, 7], circ, 1, 4, rng)
    evals = [snip.server_eval(p, circ) for p in packages]
    # left input of gate 1 reconstructs to 5
    left = [ShareVector(p.index, (tr.left[0],)) for p, (_, tr) in zip(packages, evals)]
    right = [ShareVector(p.index, (tr.right[0],)) for p, (_, tr) in zip(packages, evals)]
    assert ss_recon(left[:2], 1) == [5]
    assert ss_recon(right[:2], 1) == [7]
    outs = [ShareVector(p.index, (o,)) for p, (o, _) in zip(packages, evals)]
    assert ss_recon(outs[:2], 1) == [35]

    # a norm circuit: every gate's input shares reconstruct to eval_plain's
    # values, and the output shares to the plain output
    T = 2
    circ = build_norm_circuit(3, 5, accept_zero=True)
    inputs = [1, 2, 1]
    out_plain, plain = eval_plain(circ, inputs)
    packages = snip.prove(inputs, circ, T, 5, rng)
    evals = [snip.server_eval(p, circ) for p in packages[: T + 1]]
    indices = [p.index for p in packages[: T + 1]]

    def recon(values):
        return ss_recon([ShareVector(i, (v,)) for i, v in zip(indices, values)], T)[0]

    for t in range(circ.num_mul):
        assert recon([tr.left[t] for _, tr in evals]) == plain.left[t]
        assert recon([tr.right[t] for _, tr in evals]) == plain.right[t]
    assert recon([o for o, _ in evals]) == out_plain


def test_share_of_public_constant_is_constant():
    b = CircuitBuilder(1)
    c5 = b.const(5)
    out = b.mul(b.input(0), c5)
    circ = b.build(out)
    rng = random.Random(5)
    packages = snip.prove([9], circ, 1, 3, rng)
    for p in packages:
        _, trace = snip.server_eval(p, circ)
        # the right input wire of the single mul gate is the constant itself
        assert trace.right[0] == 5


def test_all_add_circuit_has_no_wire_shares_and_rejects_proving():
    b = CircuitBuilder(2)
    out = b.add(b.input(0), b.input(1))
    circ = b.build(out)
    rng = random.Random(6)
    shares, _ = ss_share([1, 2], 1, 3, rng)
    pkg = snip.ProverPackage(share=shares[0], h_coeff_shares=(), triple=(0, 0, 0))
    assert len(snip.server_eval(pkg, circ)[1]) == 0
    with pytest.raises(ValueError):
        snip.compute_h(circ, [1, 2])


def test_honest_completeness():
    rng = random.Random(7)
    T, K = 1, 5
    circ = build_norm_circuit(3, 10, accept_zero=True)
    inputs = [1, 2, 2]  # sum sq 9 <= 10
    out_plain, _ = eval_plain(circ, inputs)
    assert out_plain == 0
    packages = snip.prove(inputs, circ, T, K, rng)
    r = field.rand_element(rng)
    verdicts = _run_protocol(packages, circ, r, T)
    ident, out = _contract_view(verdicts, T)
    assert ident == 0 and out == 0


def test_invalid_input_detected_through_output_wire():
    rng = random.Random(8)
    T, K = 1, 5
    circ = build_norm_circuit(2, 4, accept_zero=True)
    inputs = [3, 3]  # 18 > 4
    out_plain, _ = eval_plain(circ, inputs)
    packages = snip.prove(inputs, circ, T, K, rng)
    verdicts = _run_protocol(packages, circ, field.rand_element(rng), T)
    ident, out = _contract_view(verdicts, T)
    assert ident == 0  # the proof itself is honest
    assert out == out_plain != 0


def test_tampered_h_rejected():
    rng = random.Random(9)
    T, K = 1, 5
    circ = build_norm_circuit(2, 6, accept_zero=True)
    inputs = [1, 1]
    rejections = 0
    trials = 30
    for _ in range(trials):
        input_shares, _ = ss_share(inputs, T, K, rng)
        _, _, h = snip.compute_h(circ, inputs)
        h[rng.randrange(len(h))] = (h[rng.randrange(len(h))] + rng.randrange(1, Q)) % Q
        packages = snip.package_proof(input_shares, h, T, K, rng)
        verdicts = _run_protocol(packages, circ, field.rand_element(rng), T)
        ident, _ = _contract_view(verdicts, T)
        if ident != 0:
            rejections += 1
    assert rejections == trials


def _tampered_h_rejections(positions, seed, trials=30):
    """Count rejections when one h value, at a position drawn from
    positions (1-indexed points t), is shifted by a nonzero amount."""
    rng = random.Random(seed)
    T, K = 1, 5
    circ = build_norm_circuit(2, 6, accept_zero=True)
    inputs = [1, 1]
    rejections = 0
    for _ in range(trials):
        input_shares, _ = ss_share(inputs, T, K, rng)
        _, _, h = snip.compute_h(circ, inputs)
        t = rng.choice(positions)
        h[t - 1] = (h[t - 1] + rng.randrange(1, Q)) % Q
        packages = snip.package_proof(input_shares, h, T, K, rng)
        verdicts = _run_protocol(packages, circ, field.rand_element(rng), T)
        ident, _ = _contract_view(verdicts, T)
        if ident != 0:
            rejections += 1
    return rejections


def test_tampered_h_at_multiplication_output_rejected():
    # t <= M: the value is a gate's output share, and the gate's own inputs
    # cannot compensate for it
    M = build_norm_circuit(2, 6, accept_zero=True).num_mul
    assert _tampered_h_rejections(range(1, M + 1), seed=15) == 30


def test_tampered_h_beyond_multiplication_outputs_rejected():
    # t > M: every wire stays honest, but h no longer equals f*g
    M = build_norm_circuit(2, 6, accept_zero=True).num_mul
    assert _tampered_h_rejections(range(M + 1, 2 * M), seed=16) == 30


def test_corrupt_servers_within_budget_absorbed():
    rng = random.Random(10)
    T, K = 1, 5  # budget floor((5-1-1)/2) = 1
    circ = build_norm_circuit(2, 8, accept_zero=True)
    inputs = [2, 1]
    packages = snip.prove(inputs, circ, T, K, rng)
    r = field.rand_element(rng)
    honest = _run_protocol(packages, circ, r, T)
    corrupted = _run_protocol(packages, circ, r, T, corrupt_servers={3}, corrupt_rng=rng)
    # the d/e openings reconstruct identically, so honest servers' verdict
    # shares agree with the clean run
    for i in (0, 1, 3, 4):
        assert honest[i] == corrupted[i]
    ident, out = _contract_view(corrupted, T)
    assert ident == 0 and out == 0


def test_malformed_triple_only_hurts_the_prover():
    # a prover-supplied triple with c != a*b shifts the identity test by a
    # nonzero constant, so an honest input gets rejected; it never helps
    rng = random.Random(14)
    T, K = 1, 5
    circ = build_norm_circuit(2, 6, accept_zero=True)
    inputs = [1, 1]
    input_shares, _ = ss_share(inputs, T, K, rng)
    _, _, h = snip.compute_h(circ, inputs)
    packages = snip.package_proof(input_shares, h, T, K, rng)
    # corrupt c consistently across servers: share c + delta instead of c
    delta_shares, _ = ss_share([12345], T, K, rng)
    packages = [
        snip.ProverPackage(
            share=p.share,
            h_coeff_shares=p.h_coeff_shares,
            triple=(p.triple[0], p.triple[1],
                    field.add(p.triple[2], d.values[0])),
        )
        for p, d in zip(packages, delta_shares)
    ]
    verdicts = _run_protocol(packages, circ, field.rand_element(rng), T)
    ident, _ = _contract_view(verdicts, T)
    assert ident != 0


def test_decode_failure_reported_when_openings_unrecoverable():
    rng = random.Random(11)
    T, K = 1, 4  # budget floor((4-1-1)/2) = 1, two liars exceed it
    circ = build_norm_circuit(2, 4, accept_zero=True)
    packages = snip.prove([1, 1], circ, T, K, rng)
    r = field.rand_element(random.Random(50))
    d1, d3 = field.rand_element(rng), field.rand_element(rng)
    lies = {1: (d1, field.rand_element(rng)), 3: (d3, field.rand_element(rng))}
    verdicts = snip.identity_test(packages, circ, r, T, lies)
    assert verdicts[1].decode_failed


def test_on_wire_shares_have_shamir_degree_T():
    """Degree discipline: honest verdict shares interpolate to a degree <= T
    polynomial across servers (the Beaver trick avoids degree doubling)."""
    rng = random.Random(12)
    T, K = 2, 7
    circ = build_norm_circuit(2, 5, accept_zero=True)
    packages = snip.prove([1, 2], circ, T, K, rng)
    r = field.rand_element(rng)
    verdicts = _run_protocol(packages, circ, r, T)
    for values in ([v.identity_share for v in verdicts], [v.output_share for v in verdicts]):
        poly = field.poly_interpolate(list(zip(range(1, K + 1), values)))
        assert field.poly_deg(poly) <= T


def test_package_wire_format_roundtrip():
    rng = random.Random(13)
    circ = build_norm_circuit(2, 3, accept_zero=True)
    packages = snip.prove([1, 0], circ, 1, 3, rng)
    M = circ.num_mul
    for p in packages:
        data = p.to_bytes()
        expect_len = (8 + 2 * 16) + (2 * M - 1) * 16 + 3 * 16
        assert len(data) == expect_len
        assert snip.ProverPackage.from_bytes(data, M) == p
