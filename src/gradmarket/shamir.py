"""(T, K) Shamir secret sharing of field vectors with robust reconstruction.

Shares are evaluations of per-coordinate degree-T polynomials at the fixed
points x = 1..K. Plain reconstruction interpolates any T+1 consistent
shares; robust reconstruction treats the K' share values of one scalar that
were received, at any distinct indices, as a [K', T+1] Reed-Solomon
codeword and decodes with Gao's algorithm, correcting up to
floor((K'-T-1)/2) arbitrary errors.
"""

from __future__ import annotations

import functools
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import field
from .field import FieldVector, Q


class DecodeFailure(Exception):
    """Received word is not within the error-correction radius of any codeword."""


@dataclass(frozen=True)
class ShareVector:
    """One server's share of a secret vector: values[k] = u_k(index).

    Values given as any sequence of ints are packed into a `FieldVector`,
    reduced mod q.
    """

    index: int
    values: FieldVector

    def __post_init__(self):
        if not isinstance(self.values, FieldVector):
            object.__setattr__(self, "values", FieldVector(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def to_bytes(self) -> bytes:
        """Wire format: 4-byte LE index, 4-byte LE length, 16-byte elements."""
        return struct.pack("<II", self.index, len(self.values)) + self.values.to_bytes()


def share_with_masks(
    secret: Sequence[int], masks: Sequence[Sequence[int]], K: int
) -> list[ShareVector]:
    """Evaluate u_k(x) = secret[k] + sum_j masks[j-1][k] x^j at x = 1..K.

    Deterministic core of ss_share; masks[j] is the degree-(j+1) coefficient
    vector Z^(j+1), and each vector is an int sequence or a `FieldVector`.
    All K shares are one Horner evaluation over whole coefficient vectors,
    highest degree first, on (4, K, m) arrays of 32-bit limbs in uint64
    lanes: a step multiplies by x < 2^31 and adds a coefficient, each limb
    stays below 2^64, and one carry-and-fold (2^127 = 1 mod q) keeps every
    value below 2^127 + 2^33 for the next step.
    """
    coeffs = [FieldVector(c) for c in (secret, *masks)]
    m = len(coeffs[0])
    if any(len(z) != m for z in coeffs[1:]):
        raise ValueError("mask length must match secret length")
    if not 0 < K < 1 << 31:
        raise ValueError(f"need 0 < K < 2^31, got K={K}")
    xs = np.arange(1, K + 1, dtype=np.uint64)[:, None]
    acc = np.repeat(coeffs[-1].limbs()[:, None, :], K, axis=1)
    for z in reversed(coeffs[:-1]):
        acc *= xs
        acc += z.limbs()[:, None, :]
        FieldVector.carry_fold(acc)
    rows = FieldVector.from_limbs(acc).split(K)
    return [ShareVector(index=i, values=v) for i, v in enumerate(rows, 1)]


def ss_share(
    secret: Sequence[int], T: int, K: int, rng
) -> tuple[list[ShareVector], list[FieldVector]]:
    """Share a vector; returns (K shares, the T sharing mask vectors).

    The masks are returned, packed, so the caller can bind them into a
    commitment.
    """
    if not 0 < T < K:
        raise ValueError(f"need 0 < T < K, got T={T}, K={K}")
    m = len(secret)
    masks = [FieldVector([field.rand_element(rng) for _ in range(m)]) for _ in range(T)]
    return share_with_masks(secret, masks, K), masks


def ss_recon(shares: list[ShareVector], T: int) -> list[int]:
    """Reconstruct u(0) coordinate-wise from >= T+1 shares.

    No consistency check is performed across extra shares; callers that
    need error tolerance use robust_recon, one scalar at a time.
    """
    if len(shares) < T + 1:
        raise ValueError(f"need at least {T + 1} shares, got {len(shares)}")
    use = shares[: T + 1]
    xs = [s.index for s in use]
    if len(set(xs)) != len(xs):
        raise ValueError("share indices must be distinct")
    # Lagrange coefficients at 0 for this index set, shared by all coordinates
    lam = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * -xj % Q
                den = den * (xi - xj) % Q
        lam.append(num * field.inv(den) % Q)
    columns = zip(*(s.values.tolist() for s in use))
    return [sum(map(operator.mul, lam, ys)) % Q for ys in columns]


# A session decodes every d/e opening over one index set, 1..K.
@functools.lru_cache(maxsize=8)
def _vanishing_poly(xs: tuple[int, ...]) -> tuple[int, ...]:
    """g0 = prod (x - x_i) over the index set xs, built once per set."""
    return tuple(functools.reduce(field.poly_mul, ([-x % Q, 1] for x in xs), [1]))


def gao_decode(xs: list[int], ys: list[int], k: int) -> list[int]:
    """Gao RS decoder: message polynomial of degree < k from n noisy points.

    Returns the coefficient list (length <= k) of the unique polynomial
    within distance floor((n-k)/2) of the received word, or raises
    DecodeFailure when no such polynomial exists.
    """
    n = len(xs)
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    # g0 = prod (x - x_i), g1 = interpolant through the received points
    g1 = field.poly_interpolate(list(zip(xs, ys)))
    if field.poly_deg(g1) < 0:
        return []  # all-zero word is the zero codeword
    # partial extended Euclid until deg r < (n + k) / 2
    r0, r1 = _vanishing_poly(tuple(xs)), g1
    v0, v1 = [], [1]
    while 2 * field.poly_deg(r1) >= n + k:
        quo, rem = field.poly_divmod(r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, field.poly_sub(v0, field.poly_mul(quo, v1))
    if field.poly_deg(r1) < 0:
        raise DecodeFailure("degenerate received word")
    f, rem = field.poly_divmod(r1, v1)
    if field.poly_trim(rem) or field.poly_deg(f) >= k:
        raise DecodeFailure("too many errors")
    # confirm the codeword is within the correction radius
    errors = sum(1 for x, y in zip(xs, ys) if field.poly_eval(f, x) != y)
    if errors > (n - k) // 2:
        raise DecodeFailure("too many errors")
    return f


def robust_recon(xs: list[int], ys: list[int], T: int) -> int:
    """Error-correcting reconstruction of one shared scalar from its shares
    ys[j] at the distinct indices xs[j], any subset of 1..K.

    From K' shares it corrects up to floor((K'-T-1)/2) wrong ones: with s of
    the K shares missing, e errors while 2e + s <= K - T - 1. Raises
    DecodeFailure when the received shares are beyond that.
    """
    if len(xs) < T + 2:
        raise ValueError(f"robust reconstruction needs at least {T + 2} shares, got {len(xs)}")
    f = gao_decode(xs, ys, T + 1)
    return f[0] if f else 0
