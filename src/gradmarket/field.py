"""Prime field arithmetic over F_q with q = 2^127 - 1, a Mersenne prime;
the commitment group is built on the prime p = 114q + 1.

A field element is a plain Python int in [0, q). Arithmetic is Python
int arithmetic reduced with `% Q`; an inverse is `pow(a, -1, Q)` (`inv`).
Polynomials are lists of field elements, lowest degree first. Long
vectors, such as Shamir shares, are `FieldVector`s: packed in the wire
layout, 16 bytes per element, and summed or scaled as numpy limb arrays.

Also provides signed fixed-point quantization between reals and F_q:
a real x maps to round(x * 2^s) embedded symmetrically, with negatives
stored as q - |v|. Sums of embedded values decode correctly as long as
the true sum stays below q/2 in magnitude; aggregation callers must
keep within that bound.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

Q = (1 << 127) - 1  # 2^127 - 1, prime
# a residue above HALF_Q stands for the negative value e - q
HALF_Q = (Q - 1) // 2

ELEMENT_BYTES = 16


def inv(a: int) -> int:
    """Multiplicative inverse mod q; raises ZeroDivisionError on any multiple of q."""
    if a % Q == 0:
        raise ZeroDivisionError("cannot invert zero in F_q")
    return pow(a, -1, Q)


# A draw is 127 random bits, rejected when it equals q, the one 127-bit
# value outside the field: exactly the draws and rejections of
# random.Random.randrange(q), so both consume the same stream.
DRAW_BITS = Q.bit_length()


def rand_element(rng) -> int:
    """Uniform element of [0, q) from a random.Random-like source."""
    r = rng.getrandbits(DRAW_BITS)
    while r >= Q:
        r = rng.getrandbits(DRAW_BITS)
    return r


def to_bytes(a: int) -> bytes:
    """16-byte little-endian encoding; every on-wire element uses this."""
    return a.to_bytes(ELEMENT_BYTES, "little")


# ---------------------------------------------------------------------------
# Packed vectors
# ---------------------------------------------------------------------------

_M32 = (1 << 32) - 1
_M31 = (1 << 31) - 1
# q's 32-bit limbs, as a column against a (4, len) limb array
_Q_LIMBS = np.array([[_M32], [_M32], [_M32], [_M31]], dtype=np.uint64)
# Limbs at most _LIMB_LIMIT carry without overflow (a carry is below 2^32),
# and a carry-and-fold leaves every limb below _FOLDED: limb 0, below 2^32,
# takes limb 3's bits from 2^31 up, below 2^33.
_LIMB_LIMIT = (1 << 64) - (1 << 33)
_FOLDED = 1 << 34


class FieldVector:
    """An immutable vector of F_q elements held in the wire layout: one
    buffer of 16 little-endian bytes per element, each reduced mod q on
    construction.

    It reads as a sequence of ints: `len`, an int index, a slice (a tuple),
    iteration, equality and hashing. `tolist` decodes the buffer at once
    and `digits` exposes its bytes; `combination` and `evaluate` run on
    private 32-bit limb arrays, the one place that knows the limb layout.
    """

    __slots__ = ("_buf",)

    def __init__(self, values: Iterable[int] = ()):
        if isinstance(values, FieldVector):
            self._buf = values._buf
        else:
            self._buf = b"".join([(v % Q).to_bytes(ELEMENT_BYTES, "little") for v in values])

    @classmethod
    def _packed(cls, buf: bytes) -> FieldVector:
        """The vector whose buffer is buf, already reduced."""
        vec = cls.__new__(cls)
        vec._buf = buf
        return vec

    @classmethod
    def _from_limbs(cls, t: np.ndarray) -> FieldVector:
        """The vector of the values t[0] + t[1] 2^32 + t[2] 2^64 + t[3] 2^96
        mod q, in row-major order, for a (4, ...) uint64 limb array whose
        limbs are below 2^62; t is overwritten. Two rounds of carries and of
        the fold 2^127 = 1 mod q leave every value at most q, and q itself
        becomes 0."""
        for _ in range(2):
            cls._carry_fold(t)
        t[:, (t[0] == _M32) & (t[1] == _M32) & (t[2] == _M32) & (t[3] == _M31)] = 0
        return cls._packed(np.moveaxis(t, 0, -1).astype("<u4").tobytes())

    @staticmethod
    def _carry_fold(t: np.ndarray) -> None:
        """Carry limbs 0..2 of the limb array t in place and fold the bits
        from 2^127 up onto limb 0 (2^127 = 1 mod q); values mod q keep."""
        for j in range(3):
            t[j + 1] += t[j] >> 32
            t[j] &= _M32
        t[0] += t[3] >> 31
        t[3] &= _M31

    @classmethod
    def sum(cls, vectors: Iterable[FieldVector]) -> FieldVector:
        """Coordinate-wise sum mod q of one or more equal-length vectors."""
        vectors = list(vectors)
        return cls.combination([1] * len(vectors), vectors)

    @classmethod
    def combination(cls, weights: Iterable[int], vectors: Iterable[FieldVector]) -> FieldVector:
        """sum_t weights[t] * vectors[t] mod q, for one or more equal-length
        vectors and any integer weights, on their limbs.

        Each weight is taken as its signed residue w, |w| <= HALF_Q, and a
        negative one negates its vector, as v XOR q: q is 127 one bits, so
        that is q - v for every v < 2^127. The magnitudes are read in 31-bit
        digits, most significant first, Horner's way: each digit is one pass
        that adds every vector's limbs times its digit to the running limbs,
        and between digits the running limbs are carried and folded twice,
        which leaves limb 0 at most 2^32 and the others below it, and
        multiplied by 2^31. Within a pass a bound on the running limbs
        decides when to carry and fold: only before a term that could push a
        limb within 2^33 of 2^64, so a plain sum of fewer than 2^30 vectors
        never folds. Weights below 2^31 take one pass, and a residue such as
        1/2 takes five. Each vector is converted to limbs, and negated, once
        for all passes.
        """
        vectors = list(vectors)
        signed = [(w + HALF_Q) % Q - HALF_Q for w in weights]
        if len(signed) != len(vectors) or len({len(v) for v in vectors}) != 1:
            raise ValueError("need one weight per vector, and one or more vectors of one length")
        total, bound = np.zeros((4, len(vectors[0])), dtype=np.uint64), 0
        top = max(map(abs, signed)).bit_length()
        held = [vec._limbs() for vec in vectors]
        for w, limbs in zip(signed, held):
            if w < 0:
                limbs ^= _Q_LIMBS
        term = np.empty_like(total)
        for shift in range((top - 1) // 31 * 31, -1, -31):
            if bound:  # a digit after the first
                cls._carry_fold(total)
                cls._carry_fold(total)
                total <<= 31
                bound = 1 << 63
            for w, limbs in zip(signed, held):
                digit = abs(w) >> shift & _M31
                if not digit:
                    continue
                if bound + _M32 * digit > _LIMB_LIMIT:
                    cls._carry_fold(total)
                    bound = _FOLDED
                total += np.multiply(limbs, digit, out=term)
                bound += _M32 * digit
        if bound >= 1 << 62:
            cls._carry_fold(total)
        return cls._from_limbs(total)

    @classmethod
    def evaluate(cls, coeffs: Iterable[Iterable[int]], points: Iterable[int]) -> list[FieldVector]:
        """Values at integer points in 0..2^31 - 1, one vector per point, of
        the polynomial whose coefficients, lowest degree first, are one or
        more equal-length vectors (or int sequences): one Horner evaluation
        on (4, points, len) limb arrays. A step multiplies by x < 2^31 and
        adds a coefficient, each limb stays below 2^64, and one carry-and-fold
        keeps every value below 2^127 + 2^33; the result is packed once."""
        coeffs = [cls(c) for c in coeffs]
        points = list(map(operator.index, points))
        if len({len(c) for c in coeffs}) != 1:
            raise ValueError("need one or more coefficient vectors of one length")
        if not all(0 <= x <= _M31 for x in points):
            raise ValueError("points must lie in 0..2^31 - 1")
        xs = np.array(points, dtype=np.uint64)[:, None]
        acc = np.repeat(coeffs[-1]._limbs()[:, None, :], len(points), axis=1)
        for z in reversed(coeffs[:-1]):
            acc *= xs
            acc += z._limbs()[:, None, :]
            cls._carry_fold(acc)
        buf, step = cls._from_limbs(acc)._buf, ELEMENT_BYTES * len(coeffs[0])
        return [cls._packed(buf[i * step:(i + 1) * step]) for i in range(len(points))]

    def _limbs(self) -> np.ndarray:
        """The elements as a fresh C-ordered (4, len) uint64 array of 32-bit
        limbs, least significant row first."""
        return np.frombuffer(self._buf, "<u4").reshape(-1, 4).T.astype(np.uint64, order="C")

    def digits(self) -> np.ndarray:
        """The read-only (len, 16) uint8 view of the buffer: row k is element
        k's bytes, least significant first."""
        return np.frombuffer(self._buf, np.uint8).reshape(-1, ELEMENT_BYTES)

    def to_bytes(self) -> bytes:
        """The elements' wire encodings, concatenated: the buffer itself."""
        return self._buf

    def tolist(self) -> list[int]:
        """The elements as ints, decoded in one pass: each element's two
        64-bit words become ints in an object array, joined by one shift
        and one or per element outside the interpreter loop."""
        words = np.frombuffer(self._buf, "<u8").astype(object)
        return (words[0::2] | words[1::2] << 64).tolist()

    def take(self, indices) -> FieldVector:
        """The vector of the elements at the given positions."""
        return FieldVector._packed(self.digits()[np.asarray(indices, dtype=np.intp)].tobytes())

    def __len__(self) -> int:
        return len(self._buf) // ELEMENT_BYTES

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self.tolist()[k])
        n = len(self)
        k = operator.index(k)
        if not -n <= k < n:
            raise IndexError("FieldVector index out of range")
        k %= n
        return int.from_bytes(self._buf[k * ELEMENT_BYTES:(k + 1) * ELEMENT_BYTES], "little")

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldVector):
            return self._buf == other._buf
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._buf)

    def __repr__(self) -> str:
        return f"FieldVector({self.tolist()!r})"


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
    """Horner evaluation."""
    result = 0
    for c in reversed(coeffs):
        result = (result * x + c) % Q
    return result


def poly_sub(p: list[int], q: list[int]) -> list[int]:
    return [(a - b) % Q for a, b in zip_longest(p, q, fillvalue=0)]


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
        coef = rem[dd + k] * lead_inv % Q
        quo[k] = coef
        if coef:
            for j in range(dd + 1):
                rem[j + k] = (rem[j + k] - den[j] * coef) % Q
    return poly_trim(quo), poly_trim(rem)


@dataclass(frozen=True)
class LagrangeBasis:
    """The Lagrange basis of distinct points x_i: `vanishing` is
    g0 = prod_i (x - x_i), and `columns[j][i]` is coefficient j of
    L_i = w_i g0 / (x - x_i), w_i = 1 / prod_{j != i} (x_i - x_j), which is
    1 at x_i and 0 at the other points; so `columns[0]` gives a value at 0."""

    vanishing: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


# A session decodes its d/e openings and verdicts over 1..K. The model
# owner checks later summed shares against its first T+1 (the anchors) and
# reconstructs from the first T+1 that pass: one more set, or two once a
# corrupt server sits among the anchors.
@functools.lru_cache(maxsize=8)
def lagrange_basis(xs: tuple[int, ...]) -> LagrangeBasis:
    """The basis of xs, cached for the last eight point sets: one product
    pass for g0, then per point one synthetic division and one inversion."""
    if not xs or len({x % Q for x in xs}) != len(xs):
        raise ValueError("need at least one point and distinct x coordinates")
    g0 = [1]
    for x in xs:
        g0 = [(a - x * b) % Q for a, b in zip([0, *g0], [*g0, 0])]
    rows = []
    for xi in xs:
        quo = [1]  # g0 / (x - xi), highest degree first
        for c in g0[-2:0:-1]:
            quo.append((c + xi * quo[-1]) % Q)
        w = inv(math.prod(xi - xj for xj in xs if xj != xi))
        rows.append([w * c % Q for c in reversed(quo)])
    return LagrangeBasis(tuple(g0), tuple(zip(*rows)))


def poly_interpolate(points: list[tuple[int, int]]) -> list[int]:
    """Coefficients of the unique polynomial of degree < n through n points,
    sum_i y_i L_i over their cached `lagrange_basis`. Raises ValueError on
    no points or a duplicate x."""
    basis = lagrange_basis(tuple(x for x, _ in points))
    ys = [y for _, y in points]
    return poly_trim([sum(map(operator.mul, col, ys)) % Q for col in basis.columns])


def _factorials(top: int) -> tuple[list[int], list[int]]:
    """k! and 1/k! mod q for k = 0..top, from one inversion of top! by
    1/(k-1)! = k/k!."""
    fact = [1] * (top + 1)
    for k in range(1, top + 1):
        fact[k] = fact[k - 1] * k % Q
    inv_fact = [inv(fact[top])] * (top + 1)
    for k in range(top, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % Q
    return fact, inv_fact


def _fft_size(k: int) -> int:
    """The smallest 2^a 3^b >= k, k >= 1: numpy's FFT has radix-2 and
    radix-3 passes, so such a length runs about as fast per point as a power
    of two, and it can be much shorter than the next one (6144 in place of
    8192 for the extension at n = 89, 10368 in place of 16384 at n = 144)."""
    best = 1 << (k - 1).bit_length()
    three = 3
    while three < best:
        best = min(best, three << (-(-k // three) - 1).bit_length())
        three *= 3
    return best


class EvalDomain:
    """Interpolation helpers for the fixed domain x = 1..n.

    Precomputes factorial-based barycentric weights w_i, from one inversion.
    Evaluating the degree-(n-1) interpolant of values (y_1, ..., y_n) at x
    is one dot product with the Lagrange row w_i * prod_{j != i} (x - j),
    built from one prefix and one suffix product pass, with no inversion;
    the row for the last x is memoized, so repeated evaluations at one
    challenge cost one O(n) dot product each.
    Extending the interpolant to the next n-1 points is one exact integer
    convolution over byte digits, done with a real FFT (see `extend`). The
    domain builds the inverse side's spectrum on the first extension and
    keeps it, (L/2 + 1) complex doubles for the transform length L: 256 KB
    at n = 496.

    The memo is one tuple swapped in whole, so a concurrent caller sees
    either the old or the new row; results never depend on it.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.n = n
        fact, inv_fact = _factorials(n)
        self.fact_n = fact[n]
        # w_i = (-1)^(n-i) / ((i-1)! (n-i)!) for points 1..n
        self.weights = [
            (-1) ** (n - i) * inv_fact[i - 1] * inv_fact[n - i] % Q
            for i in range(1, n + 1)
        ]
        # A slot of `extend`'s convolution holds a sum of n products below q^2.
        self.slot_bytes = (254 + n.bit_length() + 7) // 8
        self._row: tuple[int | None, list[int]] = (None, [])

    def interpolate_at(self, values: list[int], x: int) -> int:
        """Value at x of the interpolant through {(i, values[i-1])}."""
        n = self.n
        if len(values) != n:
            raise ValueError("value count must match domain size")
        x %= Q
        memo = self._row
        if memo[0] != x:
            # row i is w_i * prefix * suffix[i-1], with prefix = prod_{j < i} (x - j)
            # and suffix[i-1] = prod_{j > i} (x - j); at x = k in 1..n the row is unit vector k
            suffix = [1] * n
            for i in range(n - 1, 0, -1):
                suffix[i - 1] = suffix[i] * (x - i - 1) % Q
            row, prefix = [], 1
            for i, (w, s) in enumerate(zip(self.weights, suffix), 1):
                row.append(w * prefix % Q * s % Q)
                prefix = prefix * (x - i) % Q
            memo = self._row = (x, row)
        return sum(map(operator.mul, memo[1], values)) % Q

    def _digits(self, values: list[int]) -> np.ndarray:
        """Reduced values as little-endian `slot_bytes`-wide slots of uint8 digits."""
        width = self.slot_bytes
        return np.frombuffer(b"".join([v.to_bytes(width, "little") for v in values]), np.uint8)

    @functools.cached_property
    def _extension(self) -> tuple[int, np.ndarray, list[int]]:
        """Transform length, spectrum of 1/1..1/(2n-2), and ell(n+1..2n-1)."""
        n = self.n
        fact, inv_fact = _factorials(2 * n - 2)
        invs = [0] + [i * f % Q for i, f in zip(inv_fact[1:], fact)]  # 1/d = (d-1)!/d!
        size = _fft_size((2 * n - 1) * self.slot_bytes)
        spectrum = np.fft.rfft(self._digits(invs[1:]), size)
        # ell(n+1) = n!, ell(x+1) = ell(x) * x / (x - n)
        ells = []
        ell = self.fact_n
        for x in range(n + 1, 2 * n):
            ells.append(ell)
            ell = ell * x % Q * invs[x - n] % Q
        return size, spectrum, ells

    def extend(self, values: list[int]) -> list[int]:
        """Values at n+1..2n-1 of the interpolant through {(i, values[i-1])}:
        with them, a trace polynomial is known where a proof's h is shared.

        At x = n+k the barycentric form is ell(x) * sum_i w_i y_i / (n+k-i),
        which is coefficient n-2+k of the product of sum_i (w_i y_i) z^(i-1)
        and sum_d (1/d) z^(d-1), d = 1..2n-2. Both sides are written as byte
        digits in `slot_bytes`-wide slots (Kronecker substitution) and
        convolved with a real FFT of length L, the smallest 2^a 3^b
        >= (2n-1) * slot_bytes. Each slot sums at most n products of
        reduced values, below n q^2, so no carry crosses a slot.

        Exactness: each digit product sum is an integer below 16 n 255^2
        (< 2^33 for n <= 4096), far inside a double's 53 bits; it is rounded
        to the nearest integer, and an `ArithmeticError` is raised if any
        output lies more than 1/4 from it (on worst-case digits the largest
        distance is 9e-8 at n = 496 and 2e-6 at n = 4096). The convolution
        is cyclic, but true digit positions end below (3n-2) * slot_bytes,
        so wrapped terms land below slot n-1, and only slots n-1..2n-3 are
        read back: the rounded digit sums become one int from 8 interleaved
        uint64 lanes, whose entries never overlap. The inverse side's
        spectrum and the ell factors depend only on n and are cached on the
        domain.
        """
        n = self.n
        if len(values) != n:
            raise ValueError("value count must match domain size")
        width = self.slot_bytes
        size, spectrum, ells = self._extension
        digits = self._digits([w * y % Q for w, y in zip(self.weights, values)])
        product = np.fft.rfft(digits, size)
        product *= spectrum
        conv = np.fft.irfft(product, size)[(n - 1) * width:(2 * n - 2) * width]
        block = np.rint(conv)
        conv -= block
        if block.size and np.max(np.abs(conv)) > 0.25:
            raise ArithmeticError("FFT rounding error above 1/4 in EvalDomain.extend")
        block = block.astype("<u8")
        total = sum(int.from_bytes(block[r::8].tobytes(), "little") << 8 * r for r in range(8))
        buf = total.to_bytes((n - 1) * width, "little")
        return [
            int.from_bytes(buf[s * width:(s + 1) * width], "little") % Q * ell % Q
            for s, ell in enumerate(ells)
        ]


# A proof uses two sizes, M and 2M-1; a calibrated training run visits
# several M, so only the two most recently used sizes are kept.
@functools.lru_cache(maxsize=2)
def eval_domain(n: int) -> EvalDomain:
    """Shared EvalDomain for size n, from a cache of the last two sizes used."""
    return EvalDomain(n)


# ---------------------------------------------------------------------------
# Fixed-point quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point embedding of reals into F_q at scale 2^scale_bits.

    Representable magnitudes are below bound = 2^(126 - scale_bits), so any
    embedded value (and moderate sums of them) stays within (-q/2, q/2).
    NaN and infinities are not representable either.
    """

    scale_bits: int

    def __post_init__(self):
        if not 0 <= self.scale_bits <= 126:
            raise ValueError("scale_bits must be in 0..126")

    @property
    def bound(self) -> float:
        return float(1 << (126 - self.scale_bits))

    def quantize(self, x: float) -> int:
        bound = self.bound
        if not abs(x) < bound:  # also true for NaN
            raise OverflowError(f"value {x} is outside the fixed-point range (-{bound}, {bound})")
        v = round(x * (1 << self.scale_bits))
        if v < 0:
            return Q - (-v)
        return v % Q

    def dequantize(self, a: int) -> float:
        if a > HALF_Q:
            return -float(Q - a) / (1 << self.scale_bits)
        return float(a) / (1 << self.scale_bits)
