import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest

from gradmarket import field
from gradmarket.field import HALF_Q, FieldVector, FixedPointCodec, Q


def test_modulus_is_mersenne_prime_shape():
    assert Q == 2**127 - 1


def test_inverse_examples():
    assert field.inv(1) == 1
    # (-1)^-1 = -1
    assert field.inv(Q - 1) == Q - 1
    # 2 * (q+1)/2 = q + 1 = 1 mod q
    assert field.inv(2) == (Q + 1) // 2
    assert 2 * ((Q + 1) // 2) % Q == 1


def test_inverse_of_zero_rejected():
    # every multiple of q is zero in F_q, unreduced or negative
    for zero in (0, Q, 2 * Q, -Q):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


def test_inverse_matches_fermat_on_random_elements():
    # Fermat's a^(q-2) is the oracle; small and negative ints included
    rng = random.Random(101)
    values = [field.rand_element(rng) for _ in range(300)]
    values += list(range(1, 65)) + list(range(-64, 0))
    for a in values:
        if a % Q:
            assert a * field.inv(a) % Q == 1
            assert field.inv(a) == pow(a, Q - 2, Q)


def test_element_bytes_layout():
    # 16 bytes, least significant first
    assert field.to_bytes(0x0102) == b"\x02\x01" + b"\x00" * 14
    assert field.to_bytes(Q - 1) == b"\xfe" + b"\xff" * 14 + b"\x7f"
    rng = random.Random(3)
    for _ in range(20):
        a = field.rand_element(rng)
        data = field.to_bytes(a)
        assert len(data) == 16
        assert int.from_bytes(data, "little") == a


def test_interpolate_examples():
    # two points on a constant polynomial
    assert field.poly_interpolate([(1, 5), (2, 5)]) == [5]
    # 2x through three points
    assert field.poly_interpolate([(1, 2), (2, 4), (3, 6)]) == [0, 2]
    # single point: constant
    assert field.poly_interpolate([(0, 9)]) == [9]


def test_interpolate_rejects_duplicate_x():
    with pytest.raises(ValueError):
        field.poly_interpolate([(1, 2), (1, 3)])


def test_interpolation_evaluation_roundtrip_random_polys():
    rng = random.Random(11)
    for degree in (0, 1, 5, 17, 64):
        coeffs = [field.rand_element(rng) for _ in range(degree + 1)]
        coeffs = field.poly_trim(coeffs) or [1]
        n = len(coeffs)
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        # ascending 1..n, the same shuffled, and random field elements: the
        # differences of x-coordinates reach negative and large values
        for xs in (range(1, n + 1), shuffled, [field.rand_element(rng) for _ in range(n)]):
            pts = [(x, field.poly_eval(coeffs, x)) for x in xs]
            assert field.poly_interpolate(pts) == coeffs


def test_poly_divmod():
    rng = random.Random(13)
    for _ in range(20):
        a = [field.rand_element(rng) for _ in range(rng.randint(1, 12))]
        b = [field.rand_element(rng) for _ in range(rng.randint(1, 6))]
        b = field.poly_trim(b) or [1]
        quo, rem = field.poly_divmod(a, b)
        assert field.poly_trim(field.poly_sub(a, field.poly_mul(quo, b))) == rem
        assert field.poly_deg(rem) < field.poly_deg(b) or field.poly_deg(b) == 0


def test_eval_domain_matches_generic_interpolation():
    rng = random.Random(17)
    for n in (1, 2, 7, 40, 89):  # 89: the deep-proof circuit's M
        coeffs = [field.rand_element(rng) for _ in range(n)]
        values = [field.poly_eval(coeffs, x) for x in range(1, n + 1)]
        dom = field.EvalDomain(n)
        for x in [0, n + 3, field.rand_element(rng)]:
            assert dom.interpolate_at(values, x) == field.poly_eval(coeffs, x)
        # at in-domain points the row is a unit vector
        assert dom.interpolate_at(values, 1) == values[0]


def test_eval_domain_reduces_x_mod_q():
    rng = random.Random(23)
    coeffs = [field.rand_element(rng) for _ in range(4)]
    values = [field.poly_eval(coeffs, x) for x in range(1, 5)]
    dom = field.EvalDomain(4)
    assert dom.interpolate_at([5, 6, 7, 8], Q + 1) == 5
    assert dom.interpolate_at(values, 2 * Q + 3) == values[2]
    assert dom.interpolate_at(values, -1) == field.poly_eval(coeffs, Q - 1)


def test_eval_domain_row_memo_matches_fresh_domain():
    rng = random.Random(29)
    n = 12
    shared = field.eval_domain(n)
    polys = [[field.rand_element(rng) for _ in range(n)] for _ in range(2)]
    r1, r2 = field.rand_element(rng), field.rand_element(rng)
    for x in (r1, 3, r2, n, r1, r1, 1, r2):
        for coeffs in polys:
            values = [field.poly_eval(coeffs, t) for t in range(1, n + 1)]
            got = shared.interpolate_at(values, x)
            assert got == field.EvalDomain(n).interpolate_at(values, x)
            assert got == field.poly_eval(coeffs, x)


def test_eval_domain_extend_matches_horner():
    # Values all q-1 (the constant interpolant) and random polynomials; the
    # packed slots of `extend` must hold sums of n products below q^2.
    rng = random.Random(19)
    for n in (1, 2, 3, 64, 104, 496, 1064):
        dom = field.EvalDomain(n)
        for coeffs in ([Q - 1], [field.rand_element(rng) for _ in range(n)]):
            values = [field.poly_eval(coeffs, x) for x in range(1, n + 1)]
            expect = [field.poly_eval(coeffs, x) for x in range(n + 1, 2 * n)]
            assert dom.extend(values) == expect


def test_eval_domain_extend_rejects_wrong_length():
    dom = field.EvalDomain(4)
    with pytest.raises(ValueError):
        dom.extend([1, 2, 3])
    with pytest.raises(ValueError):
        dom.extend([1, 2, 3, 4, 5])


def _worst_case_values(dom):
    # y_i = (q-1)/w_i, so every reduced w_i * y_i that `extend` writes as
    # digits is q-1: the largest digit sums the convolution can see.
    return [(Q - 1) * field.inv(w) % Q for w in dom.weights]


@pytest.mark.parametrize("n", [496, 2048, 4096])
def test_eval_domain_extend_worst_case_digits(n):
    rng = random.Random(n)
    dom = field.EvalDomain(n)
    values = _worst_case_values(dom)
    assert all(w * y % Q == Q - 1 for w, y in zip(dom.weights, values))
    count = n - 1
    got = dom.extend(values)
    assert len(got) == count
    ks = [1, 2, 3, count - 2, count - 1, count] + rng.sample(range(1, count + 1), 16)
    for k in ks:
        assert got[k - 1] == dom.interpolate_at(values, n + k), k


def test_eval_domain_extend_spectrum_built_once_per_count():
    rng = random.Random(31)
    dom = field.EvalDomain(64)
    values = [field.rand_element(rng) for _ in range(64)]
    first = dom.extend(values)
    spectrum = dom._extension[1]
    assert dom.extend([field.rand_element(rng) for _ in range(64)]) != first
    assert dom.extend(values) == first
    assert dom._extension[1] is spectrum


@pytest.mark.parametrize("n", [1, 2, 89, 496])
def test_eval_domain_extension_from_one_inversion(n):
    # k! and 1/k! from one inversion of (2n-2)!, and the extension's
    # spectrum of 1/1..1/(2n-2) and ell(x) = prod_j (x - j) against the
    # same tables built from one pow per inverse
    fact, inv_fact = field._factorials(2 * n - 2)
    assert fact == [math.factorial(k) % Q for k in range(2 * n - 1)]
    assert inv_fact == [pow(f, -1, Q) for f in fact]
    invs = [pow(d, -1, Q) for d in range(1, 2 * n - 1)]
    dom = field.EvalDomain(n)
    size, spectrum, ells = dom._extension
    assert np.array_equal(spectrum, np.fft.rfft(dom._digits(invs), size))
    assert ells == [math.prod(range(x - n, x)) % Q for x in range(n + 1, 2 * n)]


def test_eval_domain_extend_rounding_guard(monkeypatch):
    dom = field.EvalDomain(496)
    values = _worst_case_values(dom)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ArithmeticError):
        dom.extend(values)


def test_eval_domain_cache_keeps_two_most_recent_sizes():
    field.eval_domain.cache_clear()
    rng = random.Random(37)
    n = 40
    values = [field.rand_element(rng) for _ in range(n)]
    r = field.rand_element(rng)
    first = field.eval_domain(n)
    ext, at_r = first.extend(values), first.interpolate_at(values, r)
    assert field.eval_domain(2 * n - 1) is field.eval_domain(2 * n - 1)
    assert field.eval_domain(n) is first  # a hit refreshes n
    seven = field.eval_domain(7)  # a third size evicts the oldest, 2n-1
    info = field.eval_domain.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (2, 2, 3)
    assert field.eval_domain(n) is first and field.eval_domain(7) is seven  # n, then 7
    field.eval_domain(9)  # evicts n
    assert field.eval_domain(7) is seven
    assert field.eval_domain.cache_info().misses == 4
    rebuilt = field.eval_domain(n)
    assert field.eval_domain.cache_info().misses == 5
    assert rebuilt is not first
    assert rebuilt.extend(values) == ext
    assert rebuilt.interpolate_at(values, r) == at_r


def test_eval_domain_cache_under_threads():
    field.eval_domain.cache_clear()
    errors, sizes = [], (3, 4, 5, 6)

    def worker(offset):
        try:
            for t in range(300):
                n = sizes[(t + offset) % len(sizes)]
                assert field.eval_domain(n).n == n
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert field.eval_domain.cache_info().currsize <= 2
    assert field.eval_domain(6) is field.eval_domain(6)


class _StubBits:
    """A random source whose getrandbits returns q once, at draw `at`."""

    def __init__(self, seed: int, at: int):
        self.inner = random.Random(seed)
        self.at = at
        self.draws = 0

    def getrandbits(self, k):
        self.draws += 1
        if self.draws == self.at + 1:
            assert k == Q.bit_length()
            return Q
        return self.inner.getrandbits(k)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
def test_rand_elements_match_randrange(seed):
    expect_rng = random.Random(seed)
    expect = [expect_rng.randrange(Q) for _ in range(300)]
    rng = random.Random(seed)
    assert [field.rand_element(rng) for _ in range(300)] == expect
    assert rng.getstate() == expect_rng.getstate()


@pytest.mark.parametrize("at", [0, 3, 9])
def test_rand_draws_reject_q(at):
    # the rejected draw is skipped, and later draws shift by one
    plain = random.Random(5)
    raw = [plain.getrandbits(127) for _ in range(11)]
    expect = raw[:at] + raw[at:10]
    stub = _StubBits(5, at)
    assert [field.rand_element(stub) for _ in range(10)] == expect
    assert stub.draws == 11


def test_quantize_examples():
    c16 = FixedPointCodec(16)
    assert c16.quantize(0.0) == 0
    # 1.5 * 2^16 = 98304
    assert c16.quantize(-1.5) == Q - 98304
    c8 = FixedPointCodec(8)
    assert c8.dequantize(c8.quantize(0.125)) == 0.125


def test_quantize_overflow():
    c = FixedPointCodec(16)
    for x in (c.bound, -c.bound, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(OverflowError):
            c.quantize(x)


def test_codec_scale_bits_range():
    assert FixedPointCodec(126).bound == 1.0
    for bad in (-1, 127, 200):
        with pytest.raises(ValueError):
            FixedPointCodec(bad)


def test_quantization_roundtrip_error_bound():
    rng = random.Random(23)
    for s in (4, 8, 16):
        codec = FixedPointCodec(s)
        for _ in range(200):
            x = (rng.random() - 0.5) * 1000
            back = codec.dequantize(codec.quantize(x))
            assert abs(back - x) <= 2 ** (-s - 1) + 1e-12


def test_signed_sums_decode():
    # sums of embedded signed values decode correctly below q/2
    codec = FixedPointCodec(8)
    rng = random.Random(29)
    for _ in range(50):
        xs = [(rng.random() - 0.5) * 10 for _ in range(20)]
        total = 0
        for x in xs:
            total = (total + codec.quantize(x)) % Q
        expect = sum(round(x * 256) for x in xs) / 256
        assert abs(codec.dequantize(total) - expect) < 1e-12


# ---------------------------------------------------------------------------
# Packed vectors
# ---------------------------------------------------------------------------

# the residues at the limb, sign and modulus boundaries
EDGES = [0, 1, (1 << 64) - 1, 1 << 64, HALF_Q, HALF_Q + 1, Q - 1]


def test_field_vector_reads_as_an_int_sequence():
    vec = FieldVector([*EDGES, Q, Q + 1, -1, -Q])
    ints = [*EDGES, 0, 1, Q - 1, 0]
    assert len(vec) == len(ints)
    assert list(vec) == vec.tolist() == ints
    assert [vec[k] for k in range(-len(ints), len(ints))] == ints + ints
    assert vec[2:5] == tuple(ints[2:5]) and vec[::-3] == tuple(ints[::-3]) and vec[5:2] == ()
    for k in (len(ints), -len(ints) - 1):
        with pytest.raises(IndexError):
            vec[k]
    assert vec == FieldVector(ints) == FieldVector(vec) and hash(vec) == hash(FieldVector(ints))
    assert vec != FieldVector(ints[:-1]) and vec != FieldVector([*ints[:-1], 2])
    assert vec.to_bytes() == b"".join(map(field.to_bytes, ints))
    assert vec.digits().shape == (len(ints), field.ELEMENT_BYTES)
    assert vec.take([3, 0, 3]).tolist() == [ints[3], ints[0], ints[3]]
    assert [part.tolist() for part in vec.split(11)] == [[v] for v in ints]
    with pytest.raises(ValueError):
        vec.split(2)
    assert len(FieldVector()) == 0 and FieldVector().tolist() == []


def test_field_vector_sum_matches_ints_at_edges():
    # every triple of edge residues, summed by limbs and by ints
    columns = list(itertools.product(EDGES, repeat=3))
    vectors = [FieldVector(c[j] for c in columns) for j in range(3)]
    assert FieldVector.sum(vectors[:1]) == vectors[0]
    assert FieldVector.sum(vectors).tolist() == [sum(c) % Q for c in columns]
    # many copies of the largest residue carry through every limb
    rng = random.Random(41)
    many = [FieldVector([Q - 1, *rng.sample(EDGES, 3)]) for _ in range(1000)]
    assert FieldVector.sum(many).tolist() == [sum(c) % Q for c in zip(*many)]
    with pytest.raises(ValueError):
        FieldVector.sum([vectors[0], FieldVector(EDGES)])
    with pytest.raises(ValueError):
        FieldVector.sum([])


def test_field_vector_negation_is_xor_with_q():
    # q is 127 one bits, so q - e is e XOR q byte by byte for every residue
    q_digits = np.frombuffer(Q.to_bytes(field.ELEMENT_BYTES, "little"), np.uint8)
    negated = FieldVector(EDGES).digits() ^ q_digits
    assert [int.from_bytes(row.tobytes(), "little") for row in negated] == [Q - e for e in EDGES]
