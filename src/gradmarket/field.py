"""Prime field arithmetic over F_q with q = 2^127 - 1 (Mersenne prime).

All field elements are plain Python ints in [0, q). Polynomials are lists
of field elements, lowest degree first. Python ints carry the 254-bit
intermediate products without overflow; reduction exploits the Mersenne
structure of q.

Also provides signed fixed-point quantization between reals and F_q:
a real x maps to round(x * 2^s) embedded symmetrically, with negatives
stored as q - |v|. Sums of embedded values decode correctly as long as
the true sum stays below q/2 in magnitude; aggregation callers must
keep within that bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import zip_longest

Q = (1 << 127) - 1  # 2^127 - 1, prime

ELEMENT_BYTES = 16


def _reduce(x: int) -> int:
    """Reduce a non-negative int < 2^254 mod q using the Mersenne split."""
    r = (x >> 127) + (x & Q)
    if r >= Q:
        r -= Q
    return r


def add(a: int, b: int) -> int:
    s = a + b
    if s >= Q:
        s -= Q
    return s


def sub(a: int, b: int) -> int:
    s = a - b
    if s < 0:
        s += Q
    return s


def mul(a: int, b: int) -> int:
    return _reduce(a * b)


def neg(a: int) -> int:
    return Q - a if a else 0


def inv(a: int) -> int:
    """Multiplicative inverse via Fermat: a^(q-2) mod q."""
    if a == 0:
        raise ZeroDivisionError("cannot invert zero in F_q")
    return pow(a, Q - 2, Q)


def batch_inv(values: list[int]) -> list[int]:
    """Invert many nonzero elements with one modular exponentiation.

    Montgomery's trick: prefix products, one inversion, then unwind.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        if v == 0:
            raise ZeroDivisionError("cannot invert zero in F_q")
        prefix[i] = acc
        acc = acc * v % Q
    acc_inv = inv(acc)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * acc_inv % Q
        acc_inv = acc_inv * values[i] % Q
    return out


def rand_element(rng) -> int:
    """Uniform element of [0, q) from a random.Random-like source."""
    return rng.randrange(Q)


def to_bytes(a: int) -> bytes:
    """16-byte little-endian encoding; every on-wire element uses this."""
    return a.to_bytes(ELEMENT_BYTES, "little")


def from_bytes(data: bytes) -> int:
    if len(data) != ELEMENT_BYTES:
        raise ValueError(f"field element must be {ELEMENT_BYTES} bytes, got {len(data)}")
    a = int.from_bytes(data, "little")
    if a >= Q:
        raise ValueError("encoded value out of field range")
    return a


# ---------------------------------------------------------------------------
# Polynomials (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def poly_trim(coeffs: list[int]) -> list[int]:
    """Strip trailing zero coefficients; zero polynomial becomes []."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def poly_deg(coeffs: list[int]) -> int:
    """Degree, with deg(0) = -1."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != 0:
            return i
    return -1


def poly_eval(coeffs: list[int], x: int) -> int:
    """Horner evaluation, with the Mersenne reduction inlined."""
    q = Q
    result = 0
    for c in reversed(coeffs):
        v = result * x + c
        result = (v >> 127) + (v & q)
        if result >= q:
            result -= q
    return result


def poly_add(p: list[int], q: list[int]) -> list[int]:
    return [add(a, b) for a, b in zip_longest(p, q, fillvalue=0)]


def poly_sub(p: list[int], q: list[int]) -> list[int]:
    return [sub(a, b) for a, b in zip_longest(p, q, fillvalue=0)]


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Schoolbook product. Quadratic, fine at desk scale."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = (out[i + j] + a * b) % Q
    return out


def poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Polynomial long division: num = quo * den + rem with deg rem < deg den."""
    dd = poly_deg(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    dn = poly_deg(rem)
    if dn < dd:
        return [], poly_trim(rem)
    quo = [0] * (dn - dd + 1)
    lead_inv = inv(den[dd])
    for k in range(dn - dd, -1, -1):
        coef = mul(rem[dd + k], lead_inv)
        quo[k] = coef
        if coef:
            for j in range(dd + 1):
                rem[j + k] = sub(rem[j + k], mul(den[j], coef))
    return poly_trim(quo), poly_trim(rem)


# Cache of inverses of small differences (x_i - x_j); domains reuse the
# same few values heavily, e.g. consecutive share indices.
_INV_CACHE: dict[int, int] = {}


def _cached_inv(a: int) -> int:
    r = _INV_CACHE.get(a)
    if r is None:
        r = inv(a)
        if len(_INV_CACHE) < 65536:
            _INV_CACHE[a] = r
    return r


def poly_interpolate(points: list[tuple[int, int]]) -> list[int]:
    """Coefficients of the unique polynomial of degree < n through n points.

    Newton divided differences, O(n^2). Raises ValueError on duplicate x.
    """
    if not points:
        raise ValueError("need at least one point")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x coordinates")
    n = len(points)
    # divided difference table, kept in place
    dd = [y for _, y in points]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = sub(dd[i], dd[i - 1])
            den = sub(xs[i], xs[i - level])
            dd[i] = mul(num, _cached_inv(den))
    # expand Newton form: p(x) = dd[0] + dd[1](x-x0) + dd[2](x-x0)(x-x1) + ...
    coeffs = [0] * n
    basis = [1]  # running product (x-x0)...(x-x_{k-1})
    for k in range(n):
        c = dd[k]
        if c:
            for j, b in enumerate(basis):
                coeffs[j] = add(coeffs[j], mul(c, b))
        if k < n - 1:
            # basis *= (x - xs[k])
            nxk = neg(xs[k])
            nxt = [0] * (len(basis) + 1)
            for j, b in enumerate(basis):
                nxt[j] = add(nxt[j], mul(b, nxk))
                nxt[j + 1] = add(nxt[j + 1], b)
            basis = nxt
    return poly_trim(coeffs)


class EvalDomain:
    """Interpolation helpers for the fixed domain x = 1..n.

    Precomputes factorial-based barycentric weights so that evaluating the
    degree-(n-1) interpolant of values (y_1, ..., y_n) at an arbitrary
    point costs O(n) multiplications plus one batched inversion, and
    extending it to the next consecutive points costs O(n) per point.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.n = n
        fact = [1] * (n + 1)
        for i in range(1, n + 1):
            fact[i] = fact[i - 1] * i % Q
        self.fact_n = fact[n]
        inv_fact = batch_inv(fact[:n])
        # w_i = (-1)^(n-i) / ((i-1)! (n-i)!) for points 1..n
        self.weights = [
            (-1) ** (n - i) * inv_fact[i - 1] * inv_fact[n - i] % Q
            for i in range(1, n + 1)
        ]

    def interpolate_at(self, values: list[int], x: int) -> int:
        """Value at x of the interpolant through {(i, values[i-1])}."""
        n = self.n
        if len(values) != n:
            raise ValueError("value count must match domain size")
        if 1 <= x <= n:
            return values[x - 1]
        diffs = [sub(x, i) for i in range(1, n + 1)]
        ell = 1
        for d in diffs:
            ell = ell * d % Q
        wy = map(operator.mul, self.weights, values)
        return ell * (sum(map(operator.mul, wy, batch_inv(diffs))) % Q) % Q

    def extend(self, values: list[int], count: int) -> list[int]:
        """Values at n+1..n+count of the interpolant through {(i, values[i-1])}.

        At x = n+k the barycentric form is ell(x) * sum_i w_i y_i / (x - i),
        with x - i running over k..n+k-1, ell(n+1) = n! and ell(x+1) =
        ell(x) * x / k: one dot product of the reversed w_i y_i against a
        window of inverses 1/d, reduced once. Exact, like Horner.
        """
        n = self.n
        if len(values) != n:
            raise ValueError("value count must match domain size")
        # invs[d] = 1/d for d = 1..n+count-1, from 1/d = -(q div d) / (q mod d)
        invs = [0, 1] + [0] * (n + count - 2)
        for d in range(2, n + count):
            invs[d] = (Q - Q // d) * invs[Q % d] % Q
        a_rev = [w * y % Q for w, y in zip(reversed(self.weights), reversed(values))]
        out = []
        ell = self.fact_n
        for x in range(n + 1, n + count + 1):
            k = x - n
            out.append(ell * (sum(map(operator.mul, a_rev, invs[k:x])) % Q) % Q)
            ell = ell * x % Q * invs[k] % Q
        return out


_DOMAINS: dict[int, EvalDomain] = {}


def eval_domain(n: int) -> EvalDomain:
    """Shared EvalDomain cache keyed by size."""
    dom = _DOMAINS.get(n)
    if dom is None:
        dom = EvalDomain(n)
        _DOMAINS[n] = dom
    return dom


# ---------------------------------------------------------------------------
# Fixed-point quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point embedding of reals into F_q at scale 2^scale_bits.

    Representable magnitudes are below bound = 2^(126 - scale_bits), so any
    embedded value (and moderate sums of them) stays within (-q/2, q/2).
    """

    scale_bits: int

    def __post_init__(self):
        if self.scale_bits < 0:
            raise ValueError("scale_bits must be >= 0")

    @property
    def bound(self) -> float:
        return float(1 << (126 - self.scale_bits))

    def quantize(self, x: float) -> int:
        if abs(x) >= self.bound:
            raise OverflowError(f"value {x} exceeds fixed-point bound {self.bound}")
        v = round(x * (1 << self.scale_bits))
        if v < 0:
            return Q - (-v)
        return v % Q

    def dequantize(self, a: int) -> float:
        if a > Q // 2:
            return -float(Q - a) / (1 << self.scale_bits)
        return float(a) / (1 << self.scale_bits)
