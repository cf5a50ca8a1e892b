"""(T, K) Shamir secret sharing of field vectors with robust reconstruction.

Shares are evaluations of per-coordinate degree-T polynomials at the fixed
points x = 1..K. Plain reconstruction interpolates any T+1 consistent
shares; robust reconstruction treats the K' share values of one scalar that
were received, at any distinct indices, as a [K', T+1] Reed-Solomon
codeword and decodes with Gao's algorithm, correcting up to
floor((K'-T-1)/2) arbitrary errors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import field
from .field import Q


class DecodeFailure(Exception):
    """Received word is not within the error-correction radius of any codeword."""


@dataclass(frozen=True)
class ShareVector:
    """One server's share of a secret vector: values[k] = u_k(index)."""

    index: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def to_bytes(self) -> bytes:
        """Wire format: 4-byte LE index, 4-byte LE length, 16-byte elements."""
        head = struct.pack("<II", self.index, len(self.values))
        return head + b"".join(field.to_bytes(v) for v in self.values)


def share_with_masks(
    secret: list[int], masks: list[list[int]], K: int
) -> list[ShareVector]:
    """Evaluate u_k(x) = secret[k] + sum_j masks[j-1][k] x^j at x = 1..K.

    Deterministic core of ss_share; masks[j] is the degree-(j+1) coefficient
    vector Z^(j+1). Each server's share is one Horner evaluation over whole
    coefficient vectors, highest degree first.
    """
    m = len(secret)
    for z in masks:
        if len(z) != m:
            raise ValueError("mask length must match secret length")
    *lower, top = [secret, *masks]
    top = [c % Q for c in top]
    lower.reverse()
    shares = []
    for i in range(1, K + 1):
        acc = top
        for coeffs in lower:
            acc = [(a * i + c) % Q for a, c in zip(acc, coeffs)]
        shares.append(ShareVector(index=i, values=tuple(acc)))
    return shares


def ss_share(
    secret: list[int], T: int, K: int, rng
) -> tuple[list[ShareVector], list[list[int]]]:
    """Share a vector; returns (K shares, the T sharing mask vectors).

    The masks are returned so the caller can bind them into a commitment.
    """
    if not 0 < T < K:
        raise ValueError(f"need 0 < T < K, got T={T}, K={K}")
    m = len(secret)
    masks = [[field.rand_element(rng) for _ in range(m)] for _ in range(T)]
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
    m = len(use[0].values)
    # Lagrange coefficients at 0 for this index set, shared by all coordinates
    lam = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * -xj % Q
                den = den * (xi - xj) % Q
        lam.append(num * field.inv(den) % Q)
    out = [0] * m
    for k in range(m):
        acc = 0
        for i, s in enumerate(use):
            acc = (acc + lam[i] * s.values[k]) % Q
        out[k] = acc
    return out


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
    g0 = [1]
    for x in xs:
        g0 = field.poly_mul(g0, [-x % Q, 1])
    g1 = field.poly_interpolate(list(zip(xs, ys)))
    if field.poly_deg(g1) < 0:
        return []  # all-zero word is the zero codeword
    # partial extended Euclid until deg r < (n + k) / 2
    r0, r1 = g0, g1
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
