import itertools
import math
import random
import tracemalloc

import pytest

from gradmarket import field, snip
from gradmarket.field import HALF_Q, FieldVector, Q
from gradmarket.shamir import (
    DecodeFailure,
    ShareVector,
    gao_decode,
    robust_recon,
    share_with_masks,
    ss_recon,
    ss_share,
)


def test_share_with_zero_mask_is_constant():
    shares = share_with_masks([7], [[0]], 3)
    assert [s.values[0] for s in shares] == [7, 7, 7]


def test_share_with_known_mask():
    # u(x) = 7 + 2x at x = 1, 2, 3
    shares = share_with_masks([7], [[2]], 3)
    assert [s.values[0] for s in shares] == [9, 11, 13]
    assert [s.index for s in shares] == [1, 2, 3]


def _horner_shares(secret, masks, K):
    """Reference: per-coordinate Horner evaluation at x = 1..K."""
    out = []
    for i in range(1, K + 1):
        vals = []
        for k in range(len(secret)):
            acc = 0
            for z in reversed(masks):
                acc = (acc * i + z[k]) % Q
            vals.append((acc * i + secret[k]) % Q)
        out.append(ShareVector(index=i, values=tuple(vals)))
    return out


@pytest.mark.parametrize("T", [0, 1, 2, 3])
@pytest.mark.parametrize("K", [2, 5, 7])
@pytest.mark.parametrize("m", [1, 64, 991])
def test_share_with_masks_matches_per_coordinate_horner(T, K, m):
    rng = random.Random(1000 * T + 10 * K + m)
    secret = [rng.randint(-50, 50) % Q for _ in range(m)]
    secret[0] = -1  # unreduced: every share value is still reduced
    masks = [[field.rand_element(rng) for _ in range(m)] for _ in range(T)]
    if masks:
        masks[-1][-1] = Q - 1
    assert share_with_masks(secret, masks, K) == _horner_shares(secret, masks, K)


# the residues at the limb, sign and modulus boundaries
EDGES = [0, 1, (1 << 64) - 1, 1 << 64, HALF_Q, HALF_Q + 1, Q - 1]


@pytest.mark.parametrize("T, K", [(1, 5), (2, 7)])
def test_packed_horner_shares_at_edge_values(T, K):
    # every combination of edge residues as (secret, masks) coefficients,
    # given as ints and as packed vectors
    columns = list(itertools.product(EDGES, repeat=T + 1))
    secret, *masks = ([c[j] for c in columns] for j in range(T + 1))
    expect = _horner_shares(secret, masks, K)
    assert share_with_masks(secret, masks, K) == expect
    packed = [FieldVector(z) for z in masks]
    assert share_with_masks(FieldVector(secret), packed, K) == expect
    # packed sums of two servers' shares, against the ints
    for a, b in zip(expect, _horner_shares(secret[::-1], [z[::-1] for z in masks], K)):
        assert FieldVector.sum([a.values, b.values]).tolist() == [
            (x + y) % Q for x, y in zip(a.values, b.values)
        ]
    # a proof package decodes each share of h || (a, b, ab) once and cuts h
    # and the triple from it: the edges as h, against per-coordinate ints
    rng, ref = random.Random(K), random.Random(K)
    packages = snip.package_proof(expect, secret, T, K, rng)
    a, b = field.rand_element(ref), field.rand_element(ref)
    vector = [*secret, a, b, a * b % Q]
    _, ref_masks = ss_share(vector, T, K, ref)
    ref_masks = [[z[k] for k in range(len(vector))] for z in ref_masks]
    n = len(secret)
    for pkg, s in zip(packages, _horner_shares(vector, ref_masks, K)):
        ints = [s.values[k] for k in range(n + 3)]
        assert pkg.h_coeff_shares == tuple(ints[:n]) and pkg.triple == tuple(ints[n:])


def test_share_vector_holds_16_bytes_per_element():
    # the values of a length-m share take one 16m-byte buffer, where a tuple
    # of 127-bit ints takes about 52m bytes
    m = 2400
    rng = random.Random(29)
    secret = [field.rand_element(rng) for _ in range(m)]
    masks = [[field.rand_element(rng) for _ in range(m)]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        shares = share_with_masks(secret, masks, 3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 3 * 16 * m <= held < 3 * (16 * m + 512)
    assert [len(s.to_bytes()) for s in shares] == [8 + 16 * m] * 3
    # values are reduced mod q on construction
    assert tuple(ShareVector(1, (Q + 1, -1, Q)).values) == (1, Q - 1, 0)
    assert ShareVector(1, [Q + 1, -1]) == ShareVector(1, (1, Q - 1))


def test_recon_from_two_points():
    shares = [ShareVector(1, (9,)), ShareVector(2, (11,))]
    assert ss_recon(shares, 1) == [7]


def test_recon_constant_shares():
    shares = [ShareVector(i, (42,)) for i in (2, 5)]
    assert ss_recon(shares, 1) == [42]


def test_share_recon_roundtrip():
    rng = random.Random(5)
    for T, K in [(1, 3), (2, 5), (3, 9)]:
        secret = [field.rand_element(rng) for _ in range(4)]
        shares, masks = ss_share(secret, T, K, rng)
        assert len(masks) == T and all(len(z) == 4 for z in masks)
        subset = rng.sample(shares, T + 1)
        assert ss_recon(subset, T) == secret


def test_recon_over_any_distinct_indices_is_one_combination():
    # at 0, indices (1, 3) have weights (3/2, -1/2) and (2, 4, 5) have
    # (10/3, -5, 8/3): each fraction is a signed residue of 126 bits, five
    # 31-bit digits. Through (1, 2, 2^16) the weights take four digits.
    # Repeated indices have no Lagrange basis
    rng = random.Random(12)
    secret = [0, 1, Q - 1, *(field.rand_element(rng) for _ in range(5))]
    masks = [[field.rand_element(rng) for _ in secret] for _ in range(2)]

    def shares_at(xs, T):
        return [ShareVector(x, [(a + sum(z[k] * x ** (j + 1) for j, z in enumerate(masks[:T])))
                                % Q for k, a in enumerate(secret)]) for x in xs]

    assert ss_recon(shares_at((1, 3), 1), 1) == secret
    assert ss_recon(shares_at((2, 4, 5), 2), 2) == secret
    assert ss_recon(shares_at((1, 2, 1 << 16), 2), 2) == secret
    for xs, T in (((2, 2), 1), ((1, 3, 1), 2)):
        with pytest.raises(ValueError):
            ss_recon(shares_at(xs, T), T)


def test_share_parameter_errors():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        ss_share([1], 3, 3, rng)
    with pytest.raises(ValueError):
        ss_share([1], 0, 3, rng)
    with pytest.raises(ValueError):
        ss_recon([ShareVector(1, (1,))], 1)


def _corrupt(share: ShareVector, rng, coord=0) -> ShareVector:
    values = list(share.values)
    values[coord] = (values[coord] + rng.randrange(1, Q)) % Q
    return ShareVector(index=share.index, values=tuple(values))


def _bruteforce_decode(shares, T):
    """Oracle: try every (T+1)-subset, keep the interpolation agreeing with
    the most shares; valid when agreement covers all but the error budget."""
    K = len(shares)
    best, best_agree = None, -1
    for subset in itertools.combinations(shares, T + 1):
        candidate = ss_recon(list(subset), T)
        # rebuild the per-coordinate polynomials through this subset
        agree = 0
        polys = [
            field.poly_interpolate([(s.index, s.values[k]) for s in subset])
            for k in range(len(candidate))
        ]
        for s in shares:
            if all(field.poly_eval(p, s.index) == s.values[k] for k, p in enumerate(polys)):
                agree += 1
        if agree > best_agree:
            best, best_agree = candidate, agree
    if best_agree >= K - (K - T - 1) // 2:
        return best
    return None


def _robust_recon_vector(shares, T):
    """robust_recon of every coordinate over the shares' own indices."""
    xs = [s.index for s in shares]
    return [robust_recon(xs, list(ys), T) for ys in zip(*(s.values for s in shares))]


def test_robust_recon_no_errors_equals_recon():
    rng = random.Random(9)
    secret = [field.rand_element(rng) for _ in range(3)]
    shares, masks = ss_share(secret, 1, 5, rng)
    assert _robust_recon_vector(shares, 1) == ss_recon(shares, 1) == secret
    # one process decodes and reconstructs over several index sets, each with
    # its own cached basis, and returns to the first: every result is the
    # sharing polynomial u_k(x) = secret[k] + masks[0][k] x, evaluated directly
    first = field.lagrange_basis((1, 2, 3, 4, 5))
    polys = [[secret[k], masks[0][k]] for k in range(3)]
    for xs in ((1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 3), (1, 2, 3, 4, 5)):
        subset = [shares[i - 1] for i in xs]
        assert ss_recon(subset, 1) == [field.poly_eval(u, 0) for u in polys]
        for k, u in enumerate(polys):
            ys = [s.values[k] for s in subset]
            assert gao_decode(list(xs), ys, 2) == u
            if len(xs) > 3:  # one wrong share is within the budget
                ys[1] = (ys[1] + 1) % Q
                assert robust_recon(list(xs), ys, 1) == field.poly_eval(u, 0)
    assert field.lagrange_basis((1, 2, 3, 4, 5)) is first


def test_robust_recon_single_error_k5():
    rng = random.Random(10)
    secret = [field.rand_element(rng) for _ in range(3)]
    shares, _ = ss_share(secret, 1, 5, rng)
    for bad_pos in range(5):
        tampered = list(shares)
        tampered[bad_pos] = _corrupt(tampered[bad_pos], rng)
        assert _robust_recon_vector(tampered, 1) == secret
        assert _bruteforce_decode(tampered, 1) == secret


def test_robust_recon_beyond_budget_never_silently_wrong():
    # budget + 1 errors exceed floor((K-T-1)/2). Decoding then either fails
    # or lands on another codeword within the radius, exactly when the
    # exhaustive oracle does. Odd seeds move the errors onto a neighbouring
    # codeword (one that agrees with the sharing at T indices), which is
    # within the radius when K - T - 1 is even.
    outcomes = set()
    for seed in range(12, 28):
        rng = random.Random(seed)
        K = rng.randint(4, 8)
        T = rng.randint(1, K - 2)
        budget = (K - T - 1) // 2
        shares, _ = ss_share([field.rand_element(rng)], T, K, rng)
        agree = rng.sample(range(1, K + 1), T)
        bad = rng.sample([i for i in range(1, K + 1) if i not in agree], budget + 1)
        c = rng.randrange(1, Q)

        def tamper(s):
            if seed % 2:  # the neighbour is the sharing plus c * prod(x - j), j in agree
                return ShareVector(s.index, ((s.values[0] + c * math.prod(s.index - j for j in agree)) % Q,))
            return _corrupt(s, rng)

        tampered = [tamper(s) if s.index in bad else s for s in shares]
        expected = _bruteforce_decode(tampered, T)
        xs, ys = [s.index for s in tampered], [s.values[0] for s in tampered]
        if expected is None:
            with pytest.raises(DecodeFailure):
                robust_recon(xs, ys, T)
        else:
            assert robust_recon(xs, ys, T) == expected[0]
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_robust_recon_index_requirements():
    rng = random.Random(13)
    shares, _ = ss_share([5], 1, 5, rng)
    xs, ys = [s.index for s in shares], [s.values[0] for s in shares]
    assert robust_recon(xs[1:4], ys[1:4], 1) == 5  # indices 2..4: any index set
    with pytest.raises(ValueError):
        robust_recon(xs, ys, 4)  # fewer than T + 2 points
    with pytest.raises(ValueError):
        robust_recon([1, 2, 2, 4], ys[:4], 1)  # duplicate indices


def test_ss_recon_refuses_shares_of_different_lengths():
    # a 3-value sharing read back with one 2-value share is refused, not
    # truncated by zip to [5, 6]
    shares = share_with_masks([5, 6, 7], [[1, 1, 1]], 3)
    assert ss_recon(shares[:2], 1) == [5, 6, 7]
    with pytest.raises(ValueError):
        ss_recon([shares[0], ShareVector(2, tuple(shares[1].values)[:2])], 1)


def test_decoding_refuses_fewer_values_than_indices():
    # five indices with three values: not a decode of the first three
    with pytest.raises(ValueError):
        robust_recon([1, 2, 3, 4, 5], [10, 13, 16], 1)
    with pytest.raises(ValueError):
        gao_decode([1, 2, 3, 4, 5], [10, 13, 16], 2)


def test_gao_decode_zero_word():
    assert gao_decode([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], 2) == []


def test_robust_recon_randomized_within_budget():
    # errors and erasures: s of the K shares missing and e wrong among the
    # rest, with 2e + s <= K - T - 1 and at least T + 2 shares received
    rng = random.Random(99)
    for _ in range(60):
        K = rng.randint(4, 16)
        T = rng.randint(1, K - 2)
        erasures = rng.randint(0, K - T - 2)
        errors = rng.randint(0, (K - T - 1 - erasures) // 2)
        secret = [field.rand_element(rng) for _ in range(2)]
        shares, _ = ss_share(secret, T, K, rng)
        kept = rng.sample(shares, K - erasures)
        bad = rng.sample(range(len(kept)), errors)
        tampered = [
            _corrupt(s, rng, coord=rng.randrange(2)) if i in bad else s
            for i, s in enumerate(kept)
        ]
        assert _robust_recon_vector(tampered, T) == secret


def test_mask_to_share_map_is_bijective():
    """Privacy, structurally: for fixed secret the map from the T mask values
    to any T share values is a bijection; check the matrix [i^j] over all
    T-subsets of indices for K up to 16."""
    def det_mod_q(mat):
        n = len(mat)
        m = [row[:] for row in mat]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det % Q
            det = det * m[col][col] % Q
            inv_p = field.inv(m[col][col])
            for r in range(col + 1, n):
                factor = m[r][col] * inv_p % Q
                if factor:
                    for c in range(col, n):
                        m[r][c] = (m[r][c] - factor * m[col][c]) % Q
        return det

    for K in (4, 8, 16):
        for T in (1, 2, 3):
            for subset in itertools.combinations(range(1, K + 1), T):
                mat = [[pow(i, j, Q) for j in range(1, T + 1)] for i in subset]
                assert det_mod_q(mat) != 0, (K, T, subset)


def test_wire_format_layout():
    # 4-byte index, 4-byte length, then the values in order, all little-endian
    assert ShareVector(index=3, values=(1, 0x0102)).to_bytes() == (
        b"\x03\x00\x00\x00" + b"\x02\x00\x00\x00"
        + b"\x01" + b"\x00" * 15 + b"\x02\x01" + b"\x00" * 14
    )
    rng = random.Random(21)
    shares, _ = ss_share([field.rand_element(rng) for _ in range(5)], 2, 4, rng)
    for s in shares:
        data = s.to_bytes()
        assert len(data) == 8 + 5 * 16
        assert data[:8] == s.index.to_bytes(4, "little") + (5).to_bytes(4, "little")
        assert data[8:] == b"".join(field.to_bytes(v) for v in s.values)
