"""(T, K) Shamir secret sharing of field vectors with robust reconstruction.

Shares are evaluations of per-coordinate degree-T polynomials at the fixed
points x = 1..K. Plain reconstruction interpolates any T+1 consistent
shares at distinct indices: one limb combination by the Lagrange weights
of their indices at 0, from their cached `field.lagrange_basis`. Robust
reconstruction treats the K' share values of one scalar that were
received, at any distinct indices, as a [K', T+1] Reed-Solomon codeword
and decodes with Gao's algorithm, correcting up to floor((K'-T-1)/2)
arbitrary errors.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

from . import field
from .field import FieldVector


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
    All K shares are one `FieldVector.evaluate` at 1..K.
    """
    if not 0 < K < 1 << 31:
        raise ValueError(f"need 0 < K < 2^31, got K={K}")
    rows = FieldVector.evaluate([secret, *masks], range(1, K + 1))
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
    """Reconstruct u(0) coordinate-wise from the first T+1 of >= T+1
    equal-length shares: sum_t L_t(0) * s_t, one limb combination whose
    weights are column 0 of their indices' cached `field.lagrange_basis`.
    Raises ValueError when those indices repeat or the lengths differ.

    No consistency check is performed across extra shares; callers that
    need error tolerance use robust_recon, one scalar at a time.
    """
    if len(shares) < T + 1:
        raise ValueError(f"need at least {T + 1} shares, got {len(shares)}")
    use = shares[: T + 1]
    at_zero = field.lagrange_basis(tuple(s.index for s in use)).columns[0]
    return FieldVector.combination(at_zero, [s.values for s in use]).tolist()


def gao_decode(xs: list[int], ys: list[int], k: int) -> list[int]:
    """Gao RS decoder: message polynomial of degree < k from the n noisy
    points (xs[j], ys[j]), xs distinct; g0 = prod (x - x_j) comes from the
    xs' cached `field.lagrange_basis`.

    Returns the coefficient list (length <= k) of the unique polynomial
    within distance floor((n-k)/2) of the received word, or raises
    DecodeFailure when no such polynomial exists.
    """
    n = len(xs)
    if k < 1 or n < k or len(ys) != n:
        raise ValueError("need n >= k >= 1 and one y per x")
    g1 = field.poly_interpolate(list(zip(xs, ys)))
    if field.poly_deg(g1) < 0:
        return []  # all-zero word is the zero codeword
    # partial extended Euclid until deg r < (n + k) / 2
    r0, r1 = field.lagrange_basis(tuple(xs)).vanishing, g1
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
    ys[j] at the distinct indices xs[j], any subset of 1..K, by `gao_decode`.

    From K' shares it corrects up to floor((K'-T-1)/2) wrong ones: with s of
    the K shares missing, e errors while 2e + s <= K - T - 1. Raises
    DecodeFailure when the received shares are beyond that, and ValueError
    on fewer than T + 2 shares or unless there is one y per x.
    """
    if len(xs) < T + 2:
        raise ValueError(f"robust reconstruction needs at least {T + 2} shares, got {len(xs)}")
    f = gao_decode(xs, ys, T + 1)
    return f[0] if f else 0
