import functools
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from gradmarket import commit, field, perturb, sim
from gradmarket.cli import main
from gradmarket.commit import (
    GENERATOR_LABEL,
    GROUP_COFACTOR,
    P,
    CommitmentKey,
    aggregate_commitments,
    generator,
    setup_key,
    verify_share,
)
from gradmarket.field import FieldVector, Q
from gradmarket.shamir import ShareVector, ss_share

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _explicit_key(rng, m):
    """A key of m random elements of the order-q subgroup (a residue raised
    to the cofactor), independent of the transparent generators."""
    return CommitmentKey(tuple(pow(rng.randrange(2, P), GROUP_COFACTOR, P) for _ in range(m)))


def _label_generator(k):
    """Generator k recomputed from the published label alone."""
    digest = hashlib.sha256(GENERATOR_LABEL + k.to_bytes(8, "big")).digest()
    return pow(int.from_bytes(digest, "big"), GROUP_COFACTOR, P)


def test_group_parameters():
    # q divides p - 1 and the first generator spans the order-q subgroup
    assert P == GROUP_COFACTOR * Q + 1
    assert (P - 1) % Q == 0
    assert generator(0) != 1
    assert pow(generator(0), Q, P) == 1


def test_setup_single_element_is_generator():
    rng = random.Random(1)
    key = setup_key(1, rng)
    assert key.basis == (_label_generator(0),)
    assert key.basis[0] != 1 and pow(key.basis[0], Q, P) == 1


def test_generators_are_nothing_up_my_sleeve():
    # every generator recomputes from the label with hashlib, has order q
    # and is not 1, and no two coincide
    basis = setup_key(2400, None).basis
    for k in (0, 1, 2, 191, 1000, 2399):
        assert basis[k] == _label_generator(k) == generator(k)
    assert all(g != 1 and pow(g, Q, P) == 1 for g in basis)
    assert len(set(basis)) == 2400


def test_setups_with_different_seeds_agree():
    # the key has no setup secret: it reads nothing from rng
    r1, r2 = random.Random(1), random.Random(2)
    state = r1.getstate()
    assert setup_key(3, r1).basis == setup_key(3, r2).basis
    assert r1.getstate() == state
    commit._transparent_key.cache_clear()
    assert setup_key(3, r1).basis == setup_key(5, r2).basis[:3]


def test_commit_zero_is_identity():
    key = setup_key(4, random.Random(3))
    c = commit.commit([0] * 4, [[0] * 4], key)
    assert all(e == 1 for e in c.elements)


def test_commit_single_term():
    key = setup_key(1, random.Random(4))
    c = commit.commit([5], [], key)
    assert c.elements == (pow(key.basis[0], 5, P),)


def test_commit_matches_exponent_sum_oracle():
    # a key of known discrete logs e_k to one generator g: the commitment
    # is g to the exponent sum
    m = 6
    rng = random.Random(8)
    g = generator(0)
    logs = [field.rand_element(rng) for _ in range(m)]
    key = CommitmentKey(tuple(pow(g, e, P) for e in logs))
    secret = [field.rand_element(rng) for _ in range(m)]
    c = commit.commit(secret, [], key)
    exponent = sum(e * v for e, v in zip(logs, secret)) % Q
    assert c.elements[0] == pow(g, exponent, P)


def test_commit_length_mismatch():
    key = setup_key(3, random.Random(5))
    with pytest.raises(ValueError):
        commit.commit([1, 2], [], key)
    with pytest.raises(ValueError):
        commit.commit([1, 2, 3], [[1, 2]], key)


def _honest_instance(rng, m=5, T=2, K=5):
    key = setup_key(m, rng)
    secret = [field.rand_element(rng) for _ in range(m)]
    shares, masks = ss_share(secret, T, K, rng)
    cm = commit.commit(secret, masks, key)
    return key, secret, shares, masks, cm


def test_verify_share_completeness():
    rng = random.Random(11)
    key, _, shares, _, cm = _honest_instance(rng)
    for s in shares:
        assert verify_share(s, cm, key)


def test_verify_share_detects_single_flip():
    rng = random.Random(12)
    key, _, shares, _, cm = _honest_instance(rng)
    for coord in range(5):
        bad = list(shares[1].values)
        bad[coord] = (bad[coord] + 1) % Q
        assert not verify_share(ShareVector(2, tuple(bad)), cm, key)


def test_verify_all_zero_instance():
    key = setup_key(3, random.Random(13))
    cm = commit.commit([0] * 3, [[0] * 3], key)
    assert verify_share(ShareVector(4, (0, 0, 0)), cm, key)


def test_homomorphism():
    rng = random.Random(14)
    m, T = 4, 1
    key = setup_key(m, rng)
    s1 = [field.rand_element(rng) for _ in range(m)]
    s2 = [field.rand_element(rng) for _ in range(m)]
    z1 = [[field.rand_element(rng) for _ in range(m)]]
    z2 = [[field.rand_element(rng) for _ in range(m)]]
    c1 = commit.commit(s1, z1, key)
    c2 = commit.commit(s2, z2, key)
    s12 = [(a + b) % Q for a, b in zip(s1, s2)]
    z12 = [[(a + b) % Q for a, b in zip(z1[0], z2[0])]]
    c12 = commit.commit(s12, z12, key)
    prod = aggregate_commitments([c1, c2])
    assert prod.elements == c12.elements


def test_aggregate_single_and_identity():
    rng = random.Random(15)
    key, _, _, _, cm = _honest_instance(rng, m=3, T=1)
    assert aggregate_commitments([cm]).elements == cm.elements
    ident = commit.VectorCommitment(elements=(1, 1))
    assert aggregate_commitments([ident, ident]).elements == (1, 1)
    with pytest.raises(ValueError):
        aggregate_commitments([])


def test_aggregate_verifies_summed_shares():
    # the aggregated-commitment check for summed shares, per server
    rng = random.Random(16)
    m, T, K = 4, 1, 5
    key = setup_key(m, rng)
    parts = []
    all_shares = []
    for _ in range(2):
        secret = [field.rand_element(rng) for _ in range(m)]
        shares, masks = ss_share(secret, T, K, rng)
        parts.append(commit.commit(secret, masks, key))
        all_shares.append(shares)
    agg = aggregate_commitments(parts)
    for i in range(K):
        summed = ShareVector(
            index=i + 1,
            values=tuple(
                (a + b) % Q
                for a, b in zip(all_shares[0][i].values, all_shares[1][i].values)
            ),
        )
        assert verify_share(summed, agg, key)


def test_group_element_bytes_layout():
    # fixed width, most significant byte first; a commitment is its
    # elements in order
    width = commit.GROUP_ELEMENT_BYTES
    assert width == 17  # p < 2^134
    assert commit.element_to_bytes(0x0102) == b"\x00" * (width - 2) + b"\x01\x02"
    rng = random.Random(17)
    key = setup_key(2, rng)
    for e in key.basis:
        data = commit.element_to_bytes(e)
        assert len(data) == width
        assert int.from_bytes(data, "big") == e
    cm = commit.VectorCommitment(elements=key.basis)
    assert cm.to_bytes() == b"".join(commit.element_to_bytes(e) for e in key.basis)


def _per_term_product(basis, exponents):
    """Reference multi-exp: one modular power per term."""
    acc = 1
    for b, e in zip(basis, exponents):
        acc = acc * pow(b, e, P) % P
    return acc


def test_multi_exp_empty_and_all_zero_vectors():
    key = _explicit_key(random.Random(20), 5)
    assert commit._multi_exp(CommitmentKey(()), []) == 1
    assert commit._multi_exp(key, [0] * 5) == 1


def test_multi_exp_single_term_and_top_exponent():
    key = _explicit_key(random.Random(20), 3)
    for e in (1, 2, Q - 1):
        assert commit._multi_exp(CommitmentKey(key.basis[:1]), [e]) == pow(key.basis[0], e, P)
    exps = [Q - 1, Q - 1, 5]
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


def test_multi_exp_reduces_exponents_mod_q():
    rng = random.Random(21)
    key = _explicit_key(rng, 6)
    reduced = [field.rand_element(rng) for _ in range(6)]
    expected = _per_term_product(key.basis, reduced)
    above = [e + Q * (k + 1) for k, e in enumerate(reduced)]
    below = [e - Q * (k + 1) for k, e in enumerate(reduced)]
    assert commit._multi_exp(key, above) == expected
    assert commit._multi_exp(key, below) == expected
    # the unreduced per-term powers agree too, since the basis has order q
    assert _per_term_product(key.basis, below) == expected
    assert commit._multi_exp(key, [Q, -Q, 2 * Q, 0, -1, Q + 1]) == \
        _per_term_product(key.basis, [0, 0, 0, 0, Q - 1, 1])


def test_multi_exp_small_signed_values():
    # quantized negative gradient entries are stored as q - k
    rng = random.Random(22)
    m = 50
    key = _explicit_key(rng, m)
    signed = [rng.randint(-40, 40) for _ in range(m)]
    encoded = [v % Q for v in signed]
    assert any(v < 0 for v in signed) and 0 in signed
    expected = _per_term_product(key.basis, encoded)
    assert commit._multi_exp(key, encoded) == expected
    assert commit._multi_exp(key, signed) == expected


@pytest.mark.parametrize(
    "m", [1, 2, 3, 7, 64, 192, 300, commit.VECTOR_MIN_M - 1, commit.VECTOR_MIN_M, 2400]
)
def test_multi_exp_matches_per_term_product(m):
    # keys below VECTOR_MIN_M take the byte pass, the others the vector
    # pass, and a key builds only the table of its own pass
    rng = random.Random(m)
    key = _explicit_key(rng, m)
    full = [field.rand_element(rng) for _ in range(m)]
    # sparse vector with short exponents: fewer terms, fewer windows
    sparse = [rng.randrange(1 << 20) if rng.random() < 0.3 else 0 for _ in range(m)]
    # 16 different digits: one term per bucket, a product tree of depth 0
    single = [0] * m
    single[rng.randrange(m)] = int.from_bytes(bytes(range(1, field.ELEMENT_BYTES + 1)), "little")
    for exps in (full, sparse, [Q - 1] * m, [commit.HALF_Q] * m, [commit.HALF_Q + 1] * m,
                 single, [0] * m):
        expect = _per_term_product(key.basis, exps)
        # a packed vector's bytes are read in place, a list is packed first
        assert commit._multi_exp(key, exps) == commit._multi_exp(key, FieldVector(exps)) == expect
    vector = m >= commit.VECTOR_MIN_M
    assert ("limbs" in vars(key), "columns" in vars(key)) == (vector, not vector)


def test_multi_exp_alternating_keys():
    # each key reads its own table: a table kept from the other key fails,
    # and so does a table kept per length on the two long keys
    rng = random.Random(23)
    long = commit.VECTOR_MIN_M
    keys = [_explicit_key(rng, m) for m in (40, 40, 192, 40, long, long)]
    for _ in range(2):
        for key in keys:
            exps = [field.rand_element(rng) for _ in range(len(key))]
            assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


@pytest.mark.parametrize("m", [3, 192, 2400])
def test_multi_exp_zero_top_windows(m):
    # exponents below 256^j leave every byte window from j up empty; the
    # bounds sit on and next to each byte boundary (at most 64 nonzero
    # exponents keep the per-term oracle fast)
    rng = random.Random(24)
    key = _explicit_key(rng, m)
    for j in range(1, field.ELEMENT_BYTES):
        for bound in (1 << (8 * j), (1 << (8 * j)) + 1):
            exps = [0] * m
            for k in rng.sample(range(m), min(m, 64)):
                exps[k] = rng.randrange(bound)
            exps[rng.randrange(m)] = bound - 1
            assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


def test_byte_column_layout():
    # one column per byte of a field element, each the previous to the 256th
    key = _explicit_key(random.Random(20), 7)
    columns = key.columns
    assert len(columns) == field.ELEMENT_BYTES == 16
    assert columns[0] == key.basis
    for w in range(field.ELEMENT_BYTES - 1):
        for k in range(7):
            assert columns[w + 1][k] == pow(columns[w][k], 256, P)


def test_key_table_built_once_on_first_use():
    rng = random.Random(25)
    commit._transparent_key.cache_clear()
    key = setup_key(5, rng)
    assert "columns" not in vars(key)  # setup_key leaves the table unbuilt
    secret = [field.rand_element(rng) for _ in range(5)]
    shares, masks = ss_share(secret, 1, 5, rng)
    cm = commit.commit(secret, masks, key)
    columns = vars(key)["columns"]
    assert verify_share(shares[0], cm, key)
    assert key.columns is columns
    assert len(columns) == field.ELEMENT_BYTES
    assert columns[0] == key.basis
    for col, nxt in zip(columns, columns[1:]):
        assert nxt == tuple(pow(b, 256, P) for b in col)


def test_montgomery_invariants():
    # lanes at the edges of the inputs' range, below 2p: every product
    # comes back in limbs below 2^28, below 2p and equal to a*b/R mod p
    assert commit._R > 4 * P
    edges = [2 * P - 1, P - 1, 0]
    a = commit._to_limbs([x for x in edges for _ in edges])
    b = commit._to_limbs(edges * len(edges))
    out = np.empty_like(a)
    commit._mont_mul(a, b, out)
    assert out.dtype == np.uint32 and int(out.max()) < 1 << commit._LIMB_BITS
    r_inv = pow(commit._R, -1, P)
    products = commit._from_limbs(out)
    for x, y, r in zip(commit._from_limbs(a), commit._from_limbs(b), products):
        assert r < 2 * P and r % P == x * y * r_inv % P
    # the output may overwrite an input, as the table build does
    commit._mont_mul(a, b, a)
    assert commit._from_limbs(a) == products


def _cios(x, y):
    """The exact integer of Montgomery's CIOS: (x*y + u*p) / R, with
    u = -x*y*p^-1 mod R."""
    r = commit._R
    u = -x * y * pow(P, -1, r) % r
    return (x * y + u * P) // r


def test_montgomery_lanes_are_the_exact_cios_integer():
    # not merely x*y/R mod p: each lane is the one integer below 2p that
    # CIOS gives, so the table and the bucket trees are fixed lane by lane
    r = commit._R
    edges = [0, 1, P - 1, P, P + 1, 2 * P - 1, (1 << 28) - 1, 1 << 112, r % P]
    rng = random.Random(29)
    xs = [x for x in edges for _ in edges] + [rng.randrange(2 * P) for _ in range(3000)]
    ys = edges * len(edges) + [rng.randrange(2 * P) for _ in range(3000)]
    # small low limbs leave limb 0 below (c - 1) * u, so its column goes
    # negative in the reduction step; a zero operand gives u = 0 throughout
    for _ in range(500):
        xs.append((rng.randrange(2 * P >> 28) << 28) + rng.randrange(1, 64))
        ys.append((rng.randrange(2 * P >> 28) << 28) + rng.randrange(1, 64))
    xs += [0] * 20
    ys += [rng.randrange(2 * P) for _ in range(20)]
    low = [(x & 0xFFFFFFF) * (y & 0xFFFFFFF) for x, y in zip(xs, ys)]
    u0 = [t * commit._P_NEG_INV % (1 << 28) for t in low]
    assert sum(t < commit._P_LOW * u for t, u in zip(low, u0)) >= 500
    a, b = commit._to_limbs(xs), commit._to_limbs(ys)
    out = np.empty_like(a)
    commit._mont_mul(a, b, out)
    lanes = commit._from_limbs(out)
    assert lanes == [_cios(x, y) for x, y in zip(xs, ys)]
    assert max(lanes) < 2 * P


def test_long_key_builds_only_the_limb_table():
    commit._transparent_key.cache_clear()
    m = 2400
    key = setup_key(m, None)
    assert "limbs" not in vars(key) and "columns" not in vars(key)
    rng = random.Random(28)
    exps = [field.rand_element(rng) for _ in range(m)]
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    table = vars(key)["limbs"]
    assert "columns" not in vars(key)
    assert key.limbs is table and not table.flags.writeable
    # entry w*m + k is basis[k]^(256^w) in Montgomery form, below 2p; the
    # last entry is one
    assert table.shape == (commit._LIMBS, field.ELEMENT_BYTES * m + 1)
    values = commit._from_limbs(table)
    assert max(values) < 2 * P and values[-1] == commit._R % P
    for w, k in [(0, 0), (1, 7), (8, 1200), (15, m - 1)]:
        assert values[w * m + k] % P == pow(key.basis[k], 256**w, P) * commit._R % P


@pytest.mark.parametrize("m", [commit.VECTOR_MIN_M, 2400])
def test_multi_exp_montgomery_bucket_extremes(m):
    # the vector pass leaves its buckets in Montgomery form and corrects
    # the fold once: every bucket filled, bucket 255 alone from one term of
    # one window, and every term's every digit in one bucket
    rng = random.Random(30)
    key = _explicit_key(rng, m)
    every = [int.from_bytes(bytes((k + w) % 255 + 1 for w in range(15)), "little")
             for k in range(m)]
    top = [0] * m
    top[rng.randrange(m)] = 255 << (8 * rng.randrange(field.ELEMENT_BYTES - 1))
    one = [int.from_bytes(bytes([7]) * rng.randint(1, field.ELEMENT_BYTES), "little")
           for _ in range(m)]
    for exps in (every, top, one):
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    assert "limbs" in vars(key)


@pytest.mark.parametrize("m", [1, 192, 2400])
def test_multi_exp_signed_split(m):
    rng = random.Random(26)
    key = _explicit_key(rng, m)

    def check(exps, signed):
        assert (commit._signed_parts(exps) is not None) == signed
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)

    # the largest positive and the most negative residue: magnitudes of 126 bits
    for edge in (commit.HALF_Q, commit.HALF_Q + 1):
        exps = [rng.randint(-50, 50) % Q for _ in range(m)]
        exps[rng.randrange(m)] = edge
        check(exps, signed=False)
    # all-negative small values: two byte windows in place of sixteen
    negative = [Q - rng.randint(1, 60000) for _ in range(m)]
    check(negative, signed=True)
    # small signed values with one random residue keep the single set
    mixed = [rng.randint(-60000, 60000) % Q for _ in range(m)]
    mixed[rng.randrange(m)] = field.rand_element(rng)
    check(mixed, signed=False)


def test_signed_parts_match_ints_at_edges():
    # residues within 256^15 of 0 or q, with the 64-bit limb boundaries; a
    # negative's magnitude q - e is read as e XOR q
    near = 1 << 120
    exps = [0, 1, (1 << 64) - 1, 1 << 64, near - 1,
            Q - 1, Q - (1 << 64), Q - (1 << 64) + 1, Q - near + 1]
    pos, neg = commit._signed_parts(FieldVector(exps))
    assert pos.shape == neg.shape == (len(exps), 15)

    def decode(rows):
        return [int.from_bytes(row.tobytes(), "little") for row in rows]

    assert decode(pos) == [e if e <= commit.HALF_Q else 0 for e in exps]
    assert decode(neg) == [Q - e if e > commit.HALF_Q else 0 for e in exps]
    for edge in (near, Q - near, commit.HALF_Q, commit.HALF_Q + 1):
        assert commit._signed_parts([*exps, edge]) is None


# SHA-256 of the commitment elements and the share-check results below,
# recorded with the transparent key and checked against per-term powers
COMMIT_VERIFY_2400_DIGEST = "41e5b72989f424a437d8fe26b1ae9067684c45ad006fcefc17180a8e3048c23d"


def test_commit_and_verify_golden_digest():
    key = setup_key(2400, sim.rng_stream(3, "contract.setup"))
    rng = random.Random(2400)
    secret = [rng.randint(-40, 40) % Q for _ in range(2400)]
    shares, masks = ss_share(secret, 1, 5, rng)
    cm = commit.commit(secret, masks, key)
    bad = ShareVector(3, ((shares[2].values[0] + 1) % Q,) + shares[2].values[1:])
    results = [verify_share(s, cm, key) for s in [*shares, bad]]
    assert results == [True] * 5 + [False]
    digest = hashlib.sha256(cm.to_bytes() + bytes(results)).hexdigest()
    assert digest == COMMIT_VERIFY_2400_DIGEST


def _counting_columns(monkeypatch):
    """Record the length of every key whose byte columns get built."""
    builds = []
    build = CommitmentKey.columns.func

    def counted(key):
        builds.append(len(key))
        return build(key)

    prop = functools.cached_property(counted)
    prop.__set_name__(CommitmentKey, "columns")
    monkeypatch.setattr(CommitmentKey, "columns", prop)
    return builds


def test_sessions_at_two_seeds_build_the_columns_once(monkeypatch):
    config = sim.SessionConfig.from_dict(json.loads((CONFIGS / "clean.json").read_text()))
    commit._transparent_key.cache_clear()
    builds = _counting_columns(monkeypatch)
    sim.run_session(config, 3)
    sim.run_session(config, 4)
    assert builds == [perturb.flat_length(config.layers)]


def test_session_outputs_same_with_cold_and_warm_key_cache(tmp_path):
    config = str(CONFIGS / "clean.json")
    commit._transparent_key.cache_clear()
    outs = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.json"
        assert main(["run", "--config", config, "--seed", "3", "--out", str(out)]) == 0
        outs.append((out.read_bytes(), Path(f"{out}.txlog.jsonl").read_bytes()))
    # the cold run built the key, the warm run read it from the memo
    assert commit._transparent_key.cache_info()[:2] == (1, 1)
    assert outs[0] == outs[1]
