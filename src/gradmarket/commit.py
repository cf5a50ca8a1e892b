"""Constant-size homomorphic vector commitments for verifiable sharing.

The commitment lives in the order-q subgroup of Z_p^* where p = 114*q + 1
and q = 2^127 - 1 is the sharing field modulus (114 is the smallest even
multiplier making p prime; exponents are then arithmetic mod q, which the
share-verification identity requires). The public key is the power basis
(g^(a^0), ..., g^(a^(m-1))) for a trusted-setup scalar a that is discarded
after setup.

A commitment to a shared vector is T+1 group elements: one binding the
secret, one binding each sharing mask vector. Share verification checks

    prod_j C[j]^(i^j) == prod_k basis[k]^(share[k])

and commitments aggregate by element-wise group multiplication, matching
the coordinate-wise sum of shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import field
from .field import Q
from .shamir import ShareVector

# p = 114*q + 1, the smallest prime of the form (even c)*q + 1.
GROUP_COFACTOR = 114
P = GROUP_COFACTOR * Q + 1
# generator of the order-q subgroup: 2^114 mod p (nontrivial, order divides q prime)
G = pow(2, GROUP_COFACTOR, P)

GROUP_ELEMENT_BYTES = (P.bit_length() + 7) // 8

assert (P - 1) % Q == 0
assert G != 1 and pow(G, Q, P) == 1


def element_to_bytes(a: int) -> bytes:
    """Fixed-width big-endian group element encoding."""
    return a.to_bytes(GROUP_ELEMENT_BYTES, "big")


def element_from_bytes(data: bytes) -> int:
    if len(data) != GROUP_ELEMENT_BYTES:
        raise ValueError(f"group element must be {GROUP_ELEMENT_BYTES} bytes")
    a = int.from_bytes(data, "big")
    if not 0 < a < P:
        raise ValueError("encoded group element out of range")
    return a


@dataclass(frozen=True)
class CommitmentKey:
    """Public power basis (g^(a^0), ..., g^(a^(m-1))); the scalar a is gone."""

    basis: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class VectorCommitment:
    """T+1 group elements: C[0] binds the secret, C[j] binds mask Z^(j)."""

    elements: tuple[int, ...]

    @property
    def threshold(self) -> int:
        return len(self.elements) - 1

    def to_bytes(self) -> bytes:
        return b"".join(element_to_bytes(e) for e in self.elements)


def _comb_table() -> list[list[int]]:
    """Fixed-base comb for G: rows[j][d] = G^(d * 256^j) for every byte
    position j of an exponent below q, about 4k multiplications."""
    rows = []
    base = G  # G^(256^j)
    for _ in range(field.ELEMENT_BYTES):
        row = [1, base]
        for _ in range(254):
            row.append(row[-1] * base % P)
        rows.append(row)
        base = row[-1] * base % P
    return rows


def _key_from_scalar(alpha: int, m: int) -> CommitmentKey:
    """Power basis for a known setup scalar. Tests may call this directly;
    production setup discards the scalar immediately."""
    rows = _comb_table()
    basis = []
    power = 1  # a^k mod q
    for _ in range(m):
        acc = 1
        for row, d in zip(rows, power.to_bytes(field.ELEMENT_BYTES, "little")):
            acc = acc * row[d] % P
        basis.append(acc)
        power = field.mul(power, alpha)
    return CommitmentKey(basis=tuple(basis))


def setup_key(m: int, rng) -> CommitmentKey:
    """Trusted-setup simulation: sample the scalar, emit powers, discard it."""
    if m < 1:
        raise ValueError("need m >= 1")
    alpha = field.rand_element(rng)
    return _key_from_scalar(alpha, m)


def _multi_exp(basis: tuple[int, ...], exponents) -> int:
    """prod_k basis[k]^exponents[k] mod p, by Pippenger's bucket method.

    The basis lies in the order-q subgroup, so each exponent is reduced
    mod q first (negative ones included) without changing the product.
    Each c-bit window multiplies every base into the bucket of its digit,
    and a running product folds the buckets into prod_d bucket[d]^d. The
    width c is about ln n for n nonzero terms: a window costs n bucket
    multiplications plus 2^(c+1) for the fold, over 127/c windows.
    """
    terms = [(b, e % Q) for b, e in zip(basis, exponents)]
    terms = [(b, e) for b, e in terms if e]
    if not terms:
        return 1
    c = max(1, round(math.log(len(terms))))
    mask = (1 << c) - 1
    top = max(e for _, e in terms).bit_length()
    acc = 1
    for shift in range((top - 1) // c * c, -1, -c):
        acc = pow(acc, 1 << c, P)
        buckets = [1] * (mask + 1)
        for b, e in terms:
            d = (e >> shift) & mask
            if d:
                buckets[d] = buckets[d] * b % P
        running = 1
        window = 1
        for d in range(mask, 0, -1):
            running = running * buckets[d] % P
            window = window * running % P
        acc = acc * window % P
    return acc


def commit(
    secret: list[int], masks: list[list[int]], key: CommitmentKey
) -> VectorCommitment:
    """Commit a secret vector and its T sharing masks: T+1 group elements."""
    m = len(key)
    if len(secret) != m:
        raise ValueError(f"secret length {len(secret)} != key size {m}")
    for z in masks:
        if len(z) != m:
            raise ValueError("mask length mismatch")
    elements = [_multi_exp(key.basis, secret)]
    for z in masks:
        elements.append(_multi_exp(key.basis, z))
    return VectorCommitment(elements=tuple(elements))


def verify_share(
    share: ShareVector, commitment: VectorCommitment, key: CommitmentKey
) -> bool:
    """Check prod_j C[j]^(i^j) == prod_k basis[k]^(share[k]), exponents mod q."""
    if len(share.values) != len(key):
        return False
    i = share.index
    lhs = 1
    ipow = 1  # i^j mod q
    for c in commitment.elements:
        lhs = lhs * pow(c, ipow, P) % P
        ipow = field.mul(ipow, i % Q)
    rhs = _multi_exp(key.basis, share.values)
    return lhs == rhs


def aggregate_commitments(commitments: list[VectorCommitment]) -> VectorCommitment:
    """Element-wise group product; commits the coordinate-wise sum of vectors."""
    if not commitments:
        raise ValueError("cannot aggregate an empty commitment set")
    width = len(commitments[0].elements)
    for c in commitments:
        if len(c.elements) != width:
            raise ValueError("commitment widths differ")
    out = [1] * width
    for c in commitments:
        for j, e in enumerate(c.elements):
            out[j] = out[j] * e % P
    return VectorCommitment(elements=tuple(out))
