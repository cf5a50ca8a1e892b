import dataclasses
import hashlib
import random

import pytest

from gradmarket import field, snip
from gradmarket.circuit import LIN, CircuitBuilder, _run_gates, build_norm_circuit, eval_plain
from gradmarket.field import Q
from gradmarket.shamir import ShareVector, robust_recon, ss_recon, ss_share


def _prove(inputs, circ, T, K, rng):
    """The servers' input shares, drawn from rng, and the owner's packages
    over them."""
    shares, _ = ss_share(inputs, T, K, rng)
    return shares, snip.prove(inputs, circ, T, K, rng, input_shares=shares)


def _run_protocol(shares, packages, circ, r, T, corrupt_servers=(), corrupt_rng=None):
    """Drive the two-round identity test; returns the per-server verdicts."""
    lies = {i: (corrupt_rng.randrange(Q), corrupt_rng.randrange(Q)) for i in corrupt_servers}
    return snip.identity_test(shares, packages, circ, r, T, lies)


def _contract_view(verdicts, T):
    xs = list(range(1, len(verdicts) + 1))
    ident = robust_recon(xs, [v.identity_share for v in verdicts], T)
    out = robust_recon(xs, [v.output_share for v in verdicts], T)
    return ident, out


def test_prove_single_mul_constant_h():
    b = CircuitBuilder(2)
    b_out = b.mul(b.input(0), b.input(1))
    circ = b.build(b_out)
    rng = random.Random(1)
    f, g, h = snip.compute_h(circ, [3, 4])
    assert f == [3] and g == [4] and h == [12]
    input_shares, packages = _prove([3, 4], circ, 1, 3, rng)
    assert all(len(p.h_coeff_shares) == 1 for p in packages)
    # the single h value is h(1) = 12, and h is the constant 12, so every
    # server's share of h(r) is a share of 12 at any r
    shares = [ShareVector(i, p.h_coeff_shares) for i, p in enumerate(packages, 1)]
    assert ss_recon(shares[:2], 1) == [12]
    r_shares = [
        ShareVector(s.index, (snip.server_round1(s, p, circ, 77)[2],))
        for s, p in zip(input_shares, packages)
    ]
    assert ss_recon(r_shares[:2], 1) == ss_recon(r_shares[1:], 1) == [12]


def test_h_reconstructs_trace_products():
    rng = random.Random(2)
    circ = build_norm_circuit(3, 5, accept_zero=True)
    inputs = [2, 0, 1]
    _, trace = eval_plain(circ, inputs)
    M = circ.num_mul
    _, packages = _prove(inputs, circ, 2, 6, rng)
    assert all(len(p.h_coeff_shares) == 2 * M - 1 for p in packages)
    # reconstruct each value h(t) from T+1 packages
    h = []
    for j in range(2 * M - 1):
        value_shares = [
            ShareVector(i, (p.h_coeff_shares[j],)) for i, p in enumerate(packages[:3], 1)
        ]
        h.append(ss_recon(value_shares, 2)[0])
    for t, (u, v) in enumerate(zip(trace.left, trace.right), start=1):
        assert h[t - 1] == u * v % Q
    # oracle: the coefficient-form product of the interpolated f and g
    f = field.poly_interpolate([(t, u) for t, u in enumerate(trace.left, start=1)])
    g = field.poly_interpolate([(t, v) for t, v in enumerate(trace.right, start=1)])
    fg = field.poly_mul(f, g)
    assert h == [field.poly_eval(fg, t) for t in range(1, 2 * M)]


def _unary_norm_circuit(m, rho):
    """The unary norm circuit S (S - 1) ... (S - rho): m squares and a chain
    of rho products, M = m + rho. It pins the extension at a fixed M."""
    b = CircuitBuilder(m)
    squares = [b.mul(b.input(k), b.input(k)) for k in range(m)]
    total = b.lin([(s, 1) for s in squares])
    prod = total
    for j in range(1, rho + 1):
        prod = b.mul(prod, b.lin([(total, 1)], -j))
    return b.build(prod)


def test_compute_h_golden_digest():
    # M = 496, 991 values of h. The digest was recorded with the per-point
    # barycentric extension; any exact extension of f and g reproduces it.
    circ = _unary_norm_circuit(48, 448)
    assert circ.num_mul == 496
    rng = random.Random(4)
    inputs = [rng.randrange(-3, 4) % Q for _ in range(48)]
    h = snip.compute_h(circ, inputs)[2]
    assert len(h) == 991
    digest = hashlib.sha256(b"".join(field.to_bytes(v) for v in h)).hexdigest()
    assert digest == "9d7e69f8da0700039571eb9d6bf3d5da3535eb47ab318c4824963ba8dc46d6d6"


def test_beaver_triple_reconstructs_consistently():
    rng = random.Random(3)
    circ = build_norm_circuit(2, 3, accept_zero=True)
    _, packages = _prove([1, 1], circ, 1, 4, rng)
    abc = []
    for pos in range(3):
        shares = [ShareVector(i, (p.triple[pos],)) for i, p in enumerate(packages[:2], 1)]
        abc.append(ss_recon(shares, 1)[0])
    a, b, c = abc
    assert a * b % Q == c


def test_server_eval_reconstructs_wire_values():
    rng = random.Random(4)
    b = CircuitBuilder(2)
    out = b.mul(b.input(0), b.input(1))
    circ = b.build(out)
    shares, packages = _prove([5, 7], circ, 1, 4, rng)
    evals = [snip.server_eval(s, p, circ) for s, p in zip(shares, packages)]
    # left input of gate 1 reconstructs to 5
    left = [ShareVector(s.index, (tr.left[0],)) for s, (_, tr) in zip(shares, evals)]
    right = [ShareVector(s.index, (tr.right[0],)) for s, (_, tr) in zip(shares, evals)]
    assert ss_recon(left[:2], 1) == [5]
    assert ss_recon(right[:2], 1) == [7]
    outs = [ShareVector(s.index, (o,)) for s, (o, _) in zip(shares, evals)]
    assert ss_recon(outs[:2], 1) == [35]

    # a public constant times a share is a share of the product
    b = CircuitBuilder(2)
    out = b.mul(b.lin([(b.input(0), -2)]), b.lin([(b.input(1), 1), (b.input(0), 3)]))
    circ = b.build(out)
    shares, packages = _prove([5, 7], circ, 1, 4, rng)
    evals = [snip.server_eval(s, p, circ) for s, p in zip(shares, packages)]
    left = [ShareVector(s.index, (tr.left[0],)) for s, (_, tr) in zip(shares, evals)]
    right = [ShareVector(s.index, (tr.right[0],)) for s, (_, tr) in zip(shares, evals)]
    assert ss_recon(left[:2], 1) == [Q - 10]
    assert ss_recon(right[2:], 1) == [22]
    outs = [ShareVector(s.index, (o,)) for s, (o, _) in zip(shares, evals)]
    assert ss_recon(outs[1:3], 1) == [Q - 220]

    # a norm circuit (its block polynomials are lin gates): every gate's
    # input shares reconstruct to eval_plain's values, and the output shares
    # to the plain output
    T = 2
    circ = build_norm_circuit(3, 5, accept_zero=True)
    assert any(g.kind == LIN for g in circ.gates)
    inputs = [1, 2, 1]
    out_plain, plain = eval_plain(circ, inputs)
    shares, packages = _prove(inputs, circ, T, 5, rng)
    evals = [snip.server_eval(s, p, circ) for s, p in zip(shares[: T + 1], packages)]
    indices = [s.index for s in shares[: T + 1]]

    def recon(values):
        return ss_recon([ShareVector(i, (v,)) for i, v in zip(indices, values)], T)[0]

    for t in range(circ.num_mul):
        assert recon([tr.left[t] for _, tr in evals]) == plain.left[t]
        assert recon([tr.right[t] for _, tr in evals]) == plain.right[t]
    assert recon([o for o, _ in evals]) == out_plain


def test_share_of_public_constant_is_constant():
    b = CircuitBuilder(1)
    c5 = b.lin([], 5)
    out = b.mul(b.input(0), c5)
    circ = b.build(out)
    rng = random.Random(5)
    shares, packages = _prove([9], circ, 1, 3, rng)
    for s, p in zip(shares, packages):
        _, trace = snip.server_eval(s, p, circ)
        # the right input wire of the single mul gate is the constant itself
        assert trace.right[0] == 5


def test_all_add_circuit_has_no_wire_shares_and_rejects_proving():
    b = CircuitBuilder(2)
    out = b.lin([(b.input(0), 1), (b.input(1), 1)])
    circ = b.build(out)
    rng = random.Random(6)
    shares, _ = ss_share([1, 2], 1, 3, rng)
    pkg = snip.ProverPackage(share=shares[0], h_coeff_shares=(), triple=(0, 0, 0))
    assert len(snip.server_eval(shares[0], pkg, circ)[1]) == 0
    with pytest.raises(ValueError):
        snip.compute_h(circ, [1, 2])


def test_honest_completeness():
    rng = random.Random(7)
    T, K = 1, 5
    for rho, inputs in [
        (10, [1, 2, 2]),  # sum sq 9 <= 10: three block lin gates
        (130, [Q - 5, 7, 6]),  # 25 + 49 + 36 = 110 <= 130: eleven blocks
    ]:
        circ = build_norm_circuit(3, rho, accept_zero=True)
        assert any(g.kind == LIN for g in circ.gates)
        out_plain, _ = eval_plain(circ, inputs)
        assert out_plain == 0
        shares, packages = _prove(inputs, circ, T, K, rng)
        r = field.rand_element(rng)
        verdicts = _run_protocol(shares, packages, circ, r, T)
        ident, out = _contract_view(verdicts, T)
        assert ident == 0 and out == 0


def test_invalid_input_detected_through_output_wire():
    rng = random.Random(8)
    T, K = 1, 5
    circ = build_norm_circuit(2, 4, accept_zero=True)
    inputs = [3, 3]  # 18 > 4
    out_plain, _ = eval_plain(circ, inputs)
    shares, packages = _prove(inputs, circ, T, K, rng)
    verdicts = _run_protocol(shares, packages, circ, field.rand_element(rng), T)
    ident, out = _contract_view(verdicts, T)
    assert ident == 0  # the proof itself is honest
    assert out == out_plain != 0


def test_tampered_h_rejected():
    rng = random.Random(9)
    T, K = 1, 5
    trials = 30
    for rho, inputs in [(6, [1, 1]), (130, [Q - 5, 7])]:
        circ = build_norm_circuit(2, rho, accept_zero=True)
        assert any(g.kind == LIN for g in circ.gates)
        rejections = 0
        for _ in range(trials):
            input_shares, _ = ss_share(inputs, T, K, rng)
            _, _, h = snip.compute_h(circ, inputs)
            t = rng.randrange(len(h))
            h[t] = (h[t] + rng.randrange(1, Q)) % Q
            packages = snip.package_proof(input_shares, h, T, K, rng)
            verdicts = _run_protocol(input_shares, packages, circ, field.rand_element(rng), T)
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
        verdicts = _run_protocol(input_shares, packages, circ, field.rand_element(rng), T)
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
    shares, packages = _prove(inputs, circ, T, K, rng)
    r = field.rand_element(rng)
    honest = _run_protocol(shares, packages, circ, r, T)
    corrupted = _run_protocol(shares, packages, circ, r, T, corrupt_servers={3}, corrupt_rng=rng)
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
                    (p.triple[2] + d.values[0]) % Q),
        )
        for p, d in zip(packages, delta_shares)
    ]
    verdicts = _run_protocol(input_shares, packages, circ, field.rand_element(rng), T)
    ident, _ = _contract_view(verdicts, T)
    assert ident != 0


@pytest.mark.parametrize("T, K", [(1, 5), (2, 7)])
@pytest.mark.parametrize("m, rho", [(1, 1), (3, 10), (48, 448)])
def test_offset_triple_forgery_rejected(m, rho, T, K):
    # the owner computes every multiplication as u*v + delta, ships
    # h = f*g + delta on 1..2M-1 and a triple with c = a*b + delta: the
    # wires stay consistent with h, and without the scaling by r the triple's
    # offset cancels h's, so h(r) - fhat(r) * ghat(r) - delta reconstructs 0
    rng = random.Random(1000 * m + 10 * K + rho)
    circ = build_norm_circuit(m, rho)
    inputs = [rng.randint(-3, 3) % Q for _ in range(m)]
    delta = rng.randrange(1, Q)
    _, trace = _run_gates(circ, inputs, lambda u, v: (u * v + delta) % Q)
    dom = field.eval_domain(len(trace))
    f = trace.left + dom.extend(trace.left)
    g = trace.right + dom.extend(trace.right)
    h = [(u * v + delta) % Q for u, v in zip(f, g)]
    a, b = field.rand_element(rng), field.rand_element(rng)
    input_shares, _ = ss_share(inputs, T, K, rng)
    shares, _ = ss_share([*h, a, b, (a * b + delta) % Q], T, K, rng)
    packages = [
        snip.ProverPackage(share=s, h_coeff_shares=v.values[:-3], triple=v.values[-3:])
        for s, v in zip(input_shares, shares)
    ]
    verdicts = _run_protocol(input_shares, packages, circ, field.rand_element(rng), T)
    assert not any(v.decode_failed for v in verdicts)
    ident, _ = _contract_view(verdicts, T)
    assert ident != 0


def test_identity_test_takes_packages_in_any_order():
    rng = random.Random(17)
    T, K = 1, 5
    circ = build_norm_circuit(3, 10, accept_zero=True)
    shares, packages = _prove([1, 2, 2], circ, T, K, rng)
    r = field.rand_element(rng)
    lies = {4: (field.rand_element(rng), field.rand_element(rng))}
    in_order = dict(zip(range(1, K + 1), snip.identity_test(shares, packages, circ, r, T, lies)))
    assert not any(v.decode_failed for v in in_order.values())

    def verdicts_by_server(order):
        servers = [shares[j] for j in order]
        verdicts = snip.identity_test(servers, [packages[j] for j in order], circ, r, T, lies)
        return {s.index: v for s, v in zip(servers, verdicts)}

    assert verdicts_by_server((3, 0, 4, 2, 1)) == in_order
    # without server 2 the other servers open d and e from four pairs, one
    # of them a lie, and reach the same verdicts
    assert verdicts_by_server((3, 0, 4, 2)) == {i: v for i, v in in_order.items() if i != 2}


def test_proof_is_checked_over_the_server_shares_not_the_package_copies():
    # no server reads a package's copy of its input share: copies swapped
    # for another owner's shares or for random vectors leave every verdict
    # as it was, and only the servers' own shares decide the outcome
    rng = random.Random(20)
    T, K = 1, 5
    circ = build_norm_circuit(3, 10, accept_zero=True)
    shares, packages = _prove([1, 2, 2], circ, T, K, rng)
    other, _ = ss_share([2, 0, 1], T, K, rng)  # another owner's in-bound input
    noise = [ShareVector(i, [field.rand_element(rng) for _ in range(3)]) for i in range(1, K + 1)]
    r = field.rand_element(rng)
    lies = {3: (field.rand_element(rng), field.rand_element(rng))}
    expect = snip.identity_test(shares, packages, circ, r, T, lies)
    assert not any(v.decode_failed for v in expect)
    assert _contract_view(expect, T) == (0, 0)
    for copies in (other, noise):
        swapped = [dataclasses.replace(p, share=c) for p, c in zip(packages, copies)]
        assert snip.identity_test(shares, swapped, circ, r, T, lies) == expect
    # checked over another owner's shares, the proof's h no longer matches
    # the wires: the identity is nonzero
    verdicts = snip.identity_test(other, packages, circ, r, T, lies)
    assert not any(v.decode_failed for v in verdicts)
    assert _contract_view(verdicts, T)[0] != 0
    # over random vectors, which share nothing, d and e do not decode
    verdicts = snip.identity_test(noise, packages, circ, r, T, lies)
    assert all(v.decode_failed for v in verdicts)


def test_decode_failure_reported_when_openings_unrecoverable():
    rng = random.Random(11)
    T, K = 1, 4  # budget floor((4-1-1)/2) = 1, two liars exceed it
    circ = build_norm_circuit(2, 4, accept_zero=True)
    shares, packages = _prove([1, 1], circ, T, K, rng)
    r = field.rand_element(random.Random(50))
    d1, d3 = field.rand_element(rng), field.rand_element(rng)
    lies = {1: (d1, field.rand_element(rng)), 3: (d3, field.rand_element(rng))}
    verdicts = snip.identity_test(shares, packages, circ, r, T, lies)
    # every server opens the same broadcast, so every server flags
    assert all(v.decode_failed for v in verdicts)
    assert all(v.identity_share == v.output_share == 0 for v in verdicts)


def test_identity_test_opens_d_and_e_once(monkeypatch):
    rng = random.Random(19)
    T, K = 1, 5
    circ = build_norm_circuit(3, 10, accept_zero=True)
    shares, packages = _prove([1, 2, 2], circ, T, K, rng)
    lies = {2: (field.rand_element(rng), field.rand_element(rng))}
    calls = []

    def counting(xs, ys, T):
        calls.append(list(xs))
        return robust_recon(xs, ys, T)

    monkeypatch.setattr(snip, "robust_recon", counting)
    verdicts = snip.identity_test(shares, packages, circ, field.rand_element(rng), T, lies)
    # one decode of d and one of e, over all K broadcast pairs
    assert calls == [list(range(1, K + 1))] * 2
    assert len(verdicts) == K and not any(v.decode_failed for v in verdicts)


def test_on_wire_shares_have_shamir_degree_T():
    """Degree discipline: honest verdict shares interpolate to a degree <= T
    polynomial across servers (the Beaver trick avoids degree doubling)."""
    rng = random.Random(12)
    T, K = 2, 7
    circ = build_norm_circuit(2, 5, accept_zero=True)
    shares, packages = _prove([1, 2], circ, T, K, rng)
    r = field.rand_element(rng)
    verdicts = _run_protocol(shares, packages, circ, r, T)
    for values in ([v.identity_share for v in verdicts], [v.output_share for v in verdicts]):
        poly = field.poly_interpolate(list(zip(range(1, K + 1), values)))
        assert field.poly_deg(poly) <= T


def test_package_wire_format_layout():
    # the input share, then the h shares and the triple as field elements
    rng = random.Random(13)
    circ = build_norm_circuit(2, 3, accept_zero=True)
    _, packages = _prove([1, 0], circ, 1, 3, rng)
    M = circ.num_mul
    for p in packages:
        data = p.to_bytes()
        expect_len = (8 + 2 * 16) + (2 * M - 1) * 16 + 3 * 16
        assert len(data) == expect_len
        assert data == p.share.to_bytes() + b"".join(
            field.to_bytes(v) for v in (*p.h_coeff_shares, *p.triple)
        )


def test_prove_has_no_fresh_sharing():
    # a proof is over the shares the servers were delivered, passed by name
    rng = random.Random(13)
    circ = build_norm_circuit(2, 3, accept_zero=True)
    shares, _ = ss_share([1, 0], 1, 3, rng)
    with pytest.raises(TypeError):
        snip.prove([1, 0], circ, 1, 3, rng)
    with pytest.raises(TypeError):
        snip.prove([1, 0], circ, 1, 3, rng, shares)
