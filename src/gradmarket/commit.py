"""Constant-size homomorphic vector commitments for verifiable sharing.

The commitment lives in the order-q subgroup of Z_p^* where p = 114*q + 1
and q = 2^127 - 1 is the sharing field modulus (114 is the smallest even
multiplier making p prime; exponents are then arithmetic mod q, which the
share-verification identity requires). The public key is transparent:
generator k is SHA-256(GENERATOR_LABEL || k) mod p raised to the cofactor
114, so nobody knows a discrete-log relation between generators, and there
is no setup secret. Generator k does not depend on m or on any seed, so one
key per length serves every session in a process.

A commitment to a shared vector is T+1 group elements: one binding the
secret, one binding each sharing mask vector. Share verification checks

    prod_j C[j]^(i^j) == prod_k basis[k]^(share[k])

and commitments aggregate by element-wise group multiplication, matching
the coordinate-wise sum of shares.

Both sides of that check are multi-exponentiations over the one basis, so
the key precomputes each basis element's power at every byte position of
an exponent once (fixed-base precomputation, Brickell-Gordon-McCurley-
Wilson), and a multi-exp is one bucket pass over the exponents' byte
digits and one fold. Vectors of small signed values, stored as q - k,
are read as signed (Moeller's signed-digit multi-exponentiation in its
simplest form): positives and negatives fold separately and divide.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from . import field
from .field import Q
from .shamir import ShareVector

# p = 114*q + 1, the smallest prime of the form (even c)*q + 1.
GROUP_COFACTOR = 114
P = GROUP_COFACTOR * Q + 1
# the one public label hashed into every generator of the market
GENERATOR_LABEL = b"gradmarket commitment generators v1"

GROUP_ELEMENT_BYTES = (P.bit_length() + 7) // 8
# residues above HALF_Q are read as the negative values e - q
HALF_Q = (Q - 1) // 2
# multiplications of one bucket fold: 255 into the running product, 255 into the total
FOLD_COST = 2 * 255

assert (P - 1) % Q == 0


def element_to_bytes(a: int) -> bytes:
    """Fixed-width big-endian group element encoding."""
    return a.to_bytes(GROUP_ELEMENT_BYTES, "big")


@dataclass(frozen=True)
class CommitmentKey:
    """Public generators (g_0, ..., g_(m-1)) of the order-q subgroup.

    The key also owns the fixed-base table its multi-exps read. It is a
    pure function of the basis, built on first use and cached on the
    instance, so it is not a field: equality, hashing and the setup cost
    are those of the basis alone.
    """

    basis: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """columns[w][k] = basis[k]^(256^w) for the 16 byte positions w of a
        field element: 120*m squarings, done once per key."""
        columns = [self.basis]
        for _ in range(1, field.ELEMENT_BYTES):
            columns.append(tuple(pow(b, 256, P) for b in columns[-1]))
        return tuple(columns)


@dataclass(frozen=True)
class VectorCommitment:
    """T+1 group elements: C[0] binds the secret, C[j] binds mask Z^(j)."""

    elements: tuple[int, ...]

    def to_bytes(self) -> bytes:
        return b"".join(element_to_bytes(e) for e in self.elements)


def generator(k: int) -> int:
    """g_k = (SHA-256(GENERATOR_LABEL || k as 8 big-endian bytes) mod p)^114
    mod p, an element of order q. A digest giving 0 or 1 (probability about
    2^-127) is hashed again until one does not."""
    digest = hashlib.sha256(GENERATOR_LABEL + k.to_bytes(8, "big")).digest()
    while (g := pow(int.from_bytes(digest, "big"), GROUP_COFACTOR, P)) < 2:
        digest = hashlib.sha256(digest).digest()
    return g


# the keys of the two most recently used lengths stay, with their columns
@functools.lru_cache(maxsize=2)
def _transparent_key(m: int) -> CommitmentKey:
    return CommitmentKey(basis=tuple(generator(k) for k in range(m)))


def setup_key(m: int, rng) -> CommitmentKey:
    """The transparent key of length m: no trusted setup and no secret.

    Keys are memoized per length, so every session of one process shares
    the key and, after its first multi-exp, its byte columns. `rng` is not
    read; it stays for the callers that pass one until ROADMAP item 6
    drops it.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return _transparent_key(m)


def _bucket_fold(columns, values: list[int], width: int) -> int:
    """prod_k basis[k]^values[k] mod p for values below 256^width.

    Byte w of values[k] is read from the values' little-endian encodings;
    the term columns[w][k] goes into the bucket of that digit, and one
    running-product fold returns prod_d bucket[d]^d.
    """
    digits = b"".join([v.to_bytes(width, "little") for v in values])
    buckets = [1] * 256
    for w in range(width):
        for b, d in zip(columns[w], digits[w::width]):
            if d:
                buckets[d] = buckets[d] * b % P
    running = 1
    acc = 1
    for d in range(255, 0, -1):
        running = running * buckets[d] % P
        acc = acc * running % P
    return acc


def _signed_parts(exps: list[int]) -> tuple[list[int], list[int], int] | None:
    """(positives, magnitudes of the negatives, their byte width) of reduced
    exponents, each residue e above HALF_Q read as -(q - e), when the
    magnitudes save more byte windows over the nonzero terms than a second
    fold costs; otherwise None.
    """
    width = field.ELEMENT_BYTES
    # the magnitudes need fewer windows only if every residue lies within
    # 256^(width-1) of 0 or of q; a random residue fails at once
    near = 1 << (8 * (width - 1))
    if not all(e < near or e > Q - near for e in exps):
        return None
    pos = [e if e <= HALF_Q else 0 for e in exps]
    neg = [Q - e if e > HALF_Q else 0 for e in exps]
    signed_width = (max(max(pos), max(neg)).bit_length() + 7) // 8
    terms = len(exps) - exps.count(0)
    if (width - signed_width) * terms <= FOLD_COST:
        return None
    return pos, neg, signed_width


def _multi_exp(key: CommitmentKey, exponents) -> int:
    """prod_k basis[k]^exponents[k] mod p, over the key's byte columns.

    The basis lies in the order-q subgroup, so each exponent is reduced
    mod q first (negative ones included) without changing the product.
    Byte windows above the largest residue are skipped. When some residues
    exceed HALF_Q but all are small signed values (`_signed_parts`), the
    positives and the negatives' magnitudes fold separately over fewer
    windows, and the product is pos * neg^-1 mod p.
    """
    exps = [e % Q for e in exponents]
    top = max(exps, default=0)
    if not top:
        return 1
    parts = _signed_parts(exps) if top > HALF_Q else None
    if parts is None:
        return _bucket_fold(key.columns, exps, (top.bit_length() + 7) // 8)
    pos, neg, width = parts
    columns = key.columns
    return _bucket_fold(columns, pos, width) * pow(_bucket_fold(columns, neg, width), -1, P) % P


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
    elements = [_multi_exp(key, secret)]
    for z in masks:
        elements.append(_multi_exp(key, z))
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
        ipow = ipow * i % Q
    rhs = _multi_exp(key, share.values)
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
