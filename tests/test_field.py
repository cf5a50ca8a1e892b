import random

import pytest

from gradmarket import field
from gradmarket.field import FixedPointCodec, Q


def test_modulus_is_mersenne_prime_shape():
    assert Q == 2**127 - 1


def test_inverse_examples():
    assert field.inv(1) == 1
    # (-1)^-1 = -1
    assert field.inv(Q - 1) == Q - 1
    # 2 * (q+1)/2 = q + 1 = 1 mod q
    assert field.inv(2) == (Q + 1) // 2
    assert field.mul(2, (Q + 1) // 2) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_field_axioms_random_triples():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (field.rand_element(rng) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1


def test_batch_inv_matches_inv():
    rng = random.Random(7)
    values = [field.rand_element(rng) or 1 for _ in range(50)]
    assert field.batch_inv(values) == [field.inv(v) for v in values]


def test_element_bytes_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        a = field.rand_element(rng)
        data = field.to_bytes(a)
        assert len(data) == 16
        assert field.from_bytes(data) == a
    with pytest.raises(ValueError):
        field.from_bytes(b"\xff" * 16)  # 2^128-1 is out of range
    with pytest.raises(ValueError):
        field.from_bytes(b"\x00" * 15)


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
        pts = [(x, field.poly_eval(coeffs, x)) for x in range(1, len(coeffs) + 1)]
        assert field.poly_interpolate(pts) == coeffs


def test_poly_divmod():
    rng = random.Random(13)
    for _ in range(20):
        a = [field.rand_element(rng) for _ in range(rng.randint(1, 12))]
        b = [field.rand_element(rng) for _ in range(rng.randint(1, 6))]
        b = field.poly_trim(b) or [1]
        quo, rem = field.poly_divmod(a, b)
        recon = field.poly_add(field.poly_mul(quo, b), rem)
        assert field.poly_trim(recon) == field.poly_trim(a)
        assert field.poly_deg(rem) < field.poly_deg(b) or field.poly_deg(b) == 0


def test_eval_domain_matches_generic_interpolation():
    rng = random.Random(17)
    for n in (1, 2, 7, 40):
        coeffs = [field.rand_element(rng) for _ in range(n)]
        values = [field.poly_eval(coeffs, x) for x in range(1, n + 1)]
        dom = field.EvalDomain(n)
        for x in [0, n + 3, field.rand_element(rng)]:
            assert dom.interpolate_at(values, x) == field.poly_eval(coeffs, x)
        # in-domain points return the stored value directly
        assert dom.interpolate_at(values, 1) == values[0]


def test_eval_domain_extend_matches_horner():
    rng = random.Random(19)
    for n in (1, 2, 3, 64, 496):
        coeffs = [field.rand_element(rng) for _ in range(n)]
        values = [field.poly_eval(coeffs, x) for x in range(1, n + 1)]
        dom = field.EvalDomain(n)
        for count in (n - 1, n + 5):
            expect = [field.poly_eval(coeffs, x) for x in range(n + 1, n + count + 1)]
            assert dom.extend(values, count) == expect


def test_eval_domain_extend_rejects_wrong_length():
    dom = field.EvalDomain(4)
    with pytest.raises(ValueError):
        dom.extend([1, 2, 3], 2)
    with pytest.raises(ValueError):
        dom.extend([1, 2, 3, 4, 5], 2)


def test_quantize_examples():
    c16 = FixedPointCodec(16)
    assert c16.quantize(0.0) == 0
    # 1.5 * 2^16 = 98304
    assert c16.quantize(-1.5) == Q - 98304
    c8 = FixedPointCodec(8)
    assert c8.dequantize(c8.quantize(0.125)) == 0.125


def test_quantize_overflow():
    c = FixedPointCodec(16)
    with pytest.raises(OverflowError):
        c.quantize(c.bound)


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
            total = field.add(total, codec.quantize(x))
        expect = sum(round(x * 256) for x in xs) / 256
        assert abs(codec.dequantize(total) - expect) < 1e-12
