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
Wilson). A multi-exp puts every term into the bucket of its byte digit,
then one fold returns prod_d bucket[d]^d. A short key fills the buckets
by a Python pass over its byte columns; a key of at least `VECTOR_MIN_M`
generators holds the same powers as one Montgomery-form limb table and
fills them by a vectorized product tree (`_tree_buckets`), whose multiply
reduces by the special form p = 114 * 2^127 - 113. Its buckets stay in
Montgomery form, and one power R^-e corrects their fold.
Vectors of small signed values, stored as q - k, are read as signed
(Moeller's signed-digit multi-exponentiation in its simplest form):
positives and negatives fold separately and divide.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import field
from .field import HALF_Q, FieldVector, Q
from .shamir import ShareVector

# p = 114*q + 1, the smallest prime of the form (even c)*q + 1.
GROUP_COFACTOR = 114
P = GROUP_COFACTOR * Q + 1
# the one public label hashed into every generator of the market
GENERATOR_LABEL = b"gradmarket commitment generators v1"

GROUP_ELEMENT_BYTES = (P.bit_length() + 7) // 8

assert (P - 1) % Q == 0

# Keys of at least this many generators take the vector pass (not re-tuned:
# no workload lies between 192 and 2400). Vector over byte pass time, median
# of 75 paired runs per length, shared 2-core Xeon (Python 3.11, numpy 2.4),
# m random residues (a second run: 1.13 and 0.98 at 192 and 384):
#   m      192   384   512   768   1200  2400
#   ratio  1.02  0.91  0.86  0.83  0.56  0.51
# One byte window (values 0..40): ratio 9.1 at m = 192, 1.5 at 2400.
VECTOR_MIN_M = 512
# Montgomery arithmetic of the vector pass: an element below 2p is 5 limbs
# of 28 bits, little-endian, in uint32 lanes. R = 2^140 > 4p keeps every
# product of inputs below 2p below 2p, so no lane needs a final subtraction.
_LIMB_BITS = 28
_LIMBS = 5
_R = 1 << (_LIMB_BITS * _LIMBS)
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# p = -(c - 1) + (c * 2^15) * 2^112 in limbs, c the cofactor, as q = 2^127 - 1
_P_LOW = GROUP_COFACTOR - 1
_P_HIGH = GROUP_COFACTOR << (Q.bit_length() - _LIMB_BITS * (_LIMBS - 1))
_P_NEG_INV = pow(_P_LOW, -1, 1 << _LIMB_BITS)  # -p^-1 mod 2^28
_R_INV = pow(_R, -1, P)
# lanes per vectorized multiply: bounds the int64 temporaries (about 0.3 MB)
_SLICE = 2048

assert _R > 4 * P
assert P == -_P_LOW + (_P_HIGH << (_LIMB_BITS * (_LIMBS - 1)))


def _to_limbs(values: list[int]) -> np.ndarray:
    """The 5 x len(values) uint32 limbs of integers below 2^140."""
    rows = [[(v >> (_LIMB_BITS * j)) & _LIMB_MASK for v in values] for j in range(_LIMBS)]
    return np.array(rows, dtype=np.uint32)


def _from_limbs(limbs: np.ndarray) -> list[int]:
    """The integers whose limbs are the columns of `limbs`."""
    rows = limbs.tolist()
    out = rows[-1]
    for row in reversed(rows[:-1]):
        out = [(x << _LIMB_BITS) | y for x, y in zip(out, row)]
    return out


# 1 in Montgomery form: the partner of a term that has none
_ONE = _to_limbs([_R % P])


def _mont_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a * b * R^-1 mod p lane by lane, each below 2p for a, b below 2p.

    Operand-scanning Montgomery multiplication (CIOS) with delayed carries,
    reducing by the form of p: u = -t[i] * p^-1 mod 2^28 clears limb i by
    -(c - 1) * u and adds c * 2^15 * u to limb i + 4; each lane is CIOS's
    exact integer. An int64 column stays below 2^59 (5 limb products below
    2^56, c * 2^15 * u below 2^50, a carry); a negative one carries by an
    arithmetic shift, which floors. `a` stays uint32. `out` may be `a` or `b`.
    """
    b = b.astype(np.int64)
    t = np.zeros((2 * _LIMBS, b.shape[1]), dtype=np.int64)
    tmp = np.empty_like(b)
    for i in range(_LIMBS):
        t[i : i + _LIMBS] += np.multiply(b, a[i], out=tmp)
        u = (t[i] & _LIMB_MASK) * _P_NEG_INV & _LIMB_MASK
        t[i + 1] += (t[i] - _P_LOW * u) >> _LIMB_BITS
        t[i + _LIMBS - 1] += _P_HIGH * u
    for j in range(_LIMBS, 2 * _LIMBS - 1):
        t[j + 1] += t[j] >> _LIMB_BITS
    np.bitwise_and(t[_LIMBS:], _LIMB_MASK, out=out, casting="unsafe")


def element_to_bytes(a: int) -> bytes:
    """Fixed-width big-endian group element encoding."""
    return a.to_bytes(GROUP_ELEMENT_BYTES, "big")


@dataclass(frozen=True)
class CommitmentKey:
    """Public generators (g_0, ..., g_(m-1)) of the order-q subgroup.

    The key also owns the fixed-base table its multi-exps read: `columns`
    for a key shorter than `VECTOR_MIN_M`, `limbs` for a longer one; a
    key only ever builds the one its length selects. The table is a pure
    function of the basis, built on first use and cached on the instance,
    so it is not a field: equality, hashing and the setup cost are those
    of the basis alone.
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

    @functools.cached_property
    def limbs(self) -> np.ndarray:
        """The same powers as `columns`, as one read-only uint32 table of
        Montgomery-form limbs: entry w*m + k holds basis[k]^(256^w) * R mod
        p (below 2p), and the last entry is 1 in Montgomery form. Built in
        place by 120 vectorized squarings of m lanes, once per key."""
        m = len(self.basis)
        table = np.empty((_LIMBS, field.ELEMENT_BYTES * m + 1), dtype=np.uint32)
        table[:, :m] = _to_limbs([b * _R % P for b in self.basis])
        table[:, -1:] = _ONE
        for w in range(1, field.ELEMENT_BYTES):
            for s in range(0, m, _SLICE):
                src = table[:, (w - 1) * m + s : (w - 1) * m + min(s + _SLICE, m)]
                dst = table[:, w * m + s : w * m + min(s + _SLICE, m)]
                for _ in range(8):
                    _mont_mul(src, src, dst)
                    src = dst
        table.flags.writeable = False
        return table


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


# the keys of the two most recently used lengths stay, with their tables
@functools.lru_cache(maxsize=2)
def _transparent_key(m: int) -> CommitmentKey:
    return CommitmentKey(basis=tuple(generator(k) for k in range(m)))


def setup_key(m: int, rng) -> CommitmentKey:
    """The transparent key of length m: no trusted setup and no secret.

    Keys are memoized per length, so every session of one process shares
    the key and, after its first multi-exp, its fixed-base table (see
    `CommitmentKey`); `setup_key` builds no table. `rng` is not
    read; it stays for the callers that pass one until ROADMAP item 6
    drops it.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return _transparent_key(m)


def _byte_buckets(columns, digits: bytes, width: int) -> list[int]:
    """The buckets of a short key: a Python pass over its byte columns.

    bucket[d] is the product of the terms columns[w][k] whose digit w of
    exponent k, digits[k * width + w], is d.
    """
    buckets = [1] * 256
    for w in range(width):
        for b, d in zip(columns[w], digits[w::width]):
            if d:
                buckets[d] = buckets[d] * b % P
    return buckets


def _tree_buckets(limbs: np.ndarray, digits: np.ndarray) -> tuple[list[int], int]:
    """The same buckets from a long key's limb table, by a product tree.

    The digits are read window-major, so digit (w, k) lines up with table
    entry w*m + k; a stable sort by digit drops the zeros and leaves each
    digit's terms as one run. Each level pads every odd run with the entry
    of one, which carries its last term up a level, and multiplies the
    pairs (2j, 2j + 1) in one vectorized Montgomery multiply per slice.
    When every run is down to one term, those terms are the buckets, left
    in Montgomery form. Returns them and e, the sum of the nonempty digits.
    """
    flat = digits.T.ravel()
    counts = np.bincount(flat, minlength=256)
    index = np.argsort(flat, kind="stable")[counts[0] :]
    counts = counts[1:]
    level = limbs
    while counts.max() > 1:
        index = np.insert(index, np.cumsum(counts)[(counts & 1) == 1], len(level[0]) - 1)
        counts = (counts + 1) >> 1
        pairs = len(index) // 2
        level, source = np.empty((_LIMBS, pairs + 1), dtype=np.uint32), level
        level[:, -1:] = _ONE
        for s in range(0, pairs, _SLICE):
            e = min(s + _SLICE, pairs)
            left = np.take(source, index[2 * s : 2 * e : 2], axis=1)
            right = np.take(source, index[2 * s + 1 : 2 * e : 2], axis=1)
            _mont_mul(left, right, level[:, s:e])
        index = np.arange(pairs)
    buckets = [1] * 256
    nonempty = np.flatnonzero(counts) + 1
    firsts = index[(np.cumsum(counts) - counts)[counts > 0]]
    for d, x in zip(nonempty, _from_limbs(np.take(level, firsts, axis=1))):
        buckets[d] = x
    return buckets, int(nonempty.sum())


def _bucket_fold(key: CommitmentKey, digits: np.ndarray) -> int:
    """prod_k basis[k]^values[k] mod p, for the values whose little-endian
    bytes are the rows of the (m, width) uint8 array digits.

    The term basis[k]^(256^w) goes into the bucket of digit w of value k,
    and one running-product fold returns prod_d bucket[d]^d. The vector
    pass's bucket d carries a factor R^d, so its result is multiplied once
    by R^-e.
    """
    if len(key) >= VECTOR_MIN_M:
        buckets, e = _tree_buckets(key.limbs, digits)
    else:
        buckets, e = _byte_buckets(key.columns, digits.tobytes(), digits.shape[1]), 0
    running = acc = 1
    for d in range(255, 0, -1):
        running = running * buckets[d] % P
        acc = acc * running % P
    return acc * pow(_R_INV, e, P) % P


def _width(digits: np.ndarray) -> int:
    """Byte columns of digits up to its last nonzero one (0 if none)."""
    used = np.flatnonzero(digits.any(axis=0))
    return int(used[-1]) + 1 if used.size else 0


# q's bytes: for a residue e, q - e is e XOR q
_Q_DIGITS = np.frombuffer(field.to_bytes(Q), np.uint8)
# a residue above HALF_Q has a top byte of at least 0x40
_HALF_Q_TOP = (HALF_Q + 1) >> (8 * (field.ELEMENT_BYTES - 1))


def _signed_parts(exponents) -> tuple[np.ndarray, np.ndarray] | None:
    """(positives, magnitudes of the negatives) of the residues, as byte rows
    cut to their common width, each residue e above HALF_Q read as -(q - e),
    when every residue lies within 256^15 of 0 or of q: its top byte is 0x00
    or 0x7f, and q - e is e XOR q. Then both sets fold over at most 15 byte
    windows. Otherwise None; a random residue fails at once.
    """
    digits = FieldVector(exponents).digits()
    top = digits[:, -1:]
    neg = top == 0x7F
    if not np.all(neg | (top == 0)):
        return None
    pos = np.where(neg, 0, digits)
    mag = np.where(neg, digits ^ _Q_DIGITS, 0)
    width = _width(pos | mag)
    return pos[:, :width], mag[:, :width]


def _multi_exp(key: CommitmentKey, exponents) -> int:
    """prod_k basis[k]^exponents[k] mod p, over the key's fixed-base table.

    The exponents are a `FieldVector`, whose bytes are read in place, or
    ints, packed once: reduced mod q (negative ones included), which leaves
    the product alone since the basis lies in the order-q subgroup. Byte
    windows above the largest residue are skipped. When some residues
    exceed HALF_Q but all are small signed values (`_signed_parts`), the
    positives and the negatives' magnitudes fold separately over fewer
    windows, and the product is pos * neg^-1 mod p.
    """
    vec = FieldVector(exponents)
    digits = vec.digits()
    width = _width(digits)
    if not width:
        return 1
    parts = _signed_parts(vec) if digits[:, -1].max() >= _HALF_Q_TOP else None
    if parts is None:
        return _bucket_fold(key, digits[:, :width])
    pos, neg = parts
    return _bucket_fold(key, pos) * pow(_bucket_fold(key, neg), -1, P) % P


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
