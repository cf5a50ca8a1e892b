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
the coordinate-wise sum of shares. A checker that already accepted T
shares against a commitment checks a further share through the secret
the T + 1 of them imply, C[0]^D == prod_k basis[k]^(D * secret[k]) with D
a small integer (Feldman's identity; see `verify_share`): the same
answer, and for an aggregate of quantized gradients a multi-exp over a
few byte windows in place of sixteen. Once it has accepted T + 1, they
fix the shared polynomial, and a further share is checked against its
value there in F_q, with no group work: the same answer unless someone
knows a discrete-log relation among the generators.

Both sides of that check are multi-exponentiations over the one basis, so
the key precomputes each basis element's power at every byte position of
an exponent once (fixed-base precomputation, Brickell-Gordon-McCurley-
Wilson), as one Montgomery-form limb table. A multi-exp reads the
exponents' packed words once into byte digits and sorts its terms by
digit, so each digit's terms form one run; one fold from the largest digit
d down multiplies each entry of d into a running product and the running
product into the result, which returns prod_d (product of d's terms)^d.
Every exponent width, one-byte quantized secrets included, takes one
path: a vectorized product tree over the limb table (`_tree_entries`),
whose multiply reduces by the special form p = 114 * 2^127 - 113, shortens
the runs. A tree level pays a fixed numpy cost of tens of microseconds and
spares the fold one Python multiply per pair it merges, so a level runs
only while it would merge more than 255 pairs. The tree's entries stay in
Montgomery form, and one power R^-e corrects their fold. Vectors of small
signed values, stored as q - k, are read as signed (Moeller's signed-digit
multi-exponentiation in its simplest form): positives and negatives'
magnitudes fold separately and divide.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import field, shamir
from .field import FieldVector, Q
from .shamir import ShareVector

# p = 114*q + 1, the smallest prime of the form (even c)*q + 1.
GROUP_COFACTOR = 114
P = GROUP_COFACTOR * Q + 1
# the one public label hashed into every generator of the market
GENERATOR_LABEL = b"gradmarket commitment generators v1"

GROUP_ELEMENT_BYTES = (P.bit_length() + 7) // 8

assert (P - 1) % Q == 0

# Montgomery arithmetic of the product tree: an element below 2p is 5 limbs
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
    """The integers whose 5 limbs of 28 bits are the columns of `limbs`:
    one vectorized pass packs each into three little-endian 64-bit words,
    and each 24-byte record becomes one int."""
    x = limbs.astype(np.uint64)
    words = np.empty((x.shape[1], 3), dtype="<u8")
    words[:, 0] = x[0] | x[1] << 28 | x[2] << 56
    words[:, 1] = x[2] >> 8 | x[3] << 20 | x[4] << 48
    words[:, 2] = x[4] >> 16
    records = words.view("V24").ravel().tolist()
    return list(map(int.from_bytes, records, itertools.repeat("little")))


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

    The key also owns the fixed-base table every multi-exp reads,
    `limbs`, at every length and exponent width. The table is a pure
    function of the basis, built on first use and cached on the instance,
    so it is not a field: equality, hashing and the setup cost are those of
    the basis alone.
    """

    basis: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def limbs(self) -> np.ndarray:
        """Each basis element's power at every byte position, as one
        read-only uint32 table of Montgomery-form limbs: entry w*m + k holds
        basis[k]^(256^w) * R mod p (below 2p), and the last entry is 1 in
        Montgomery form. Built in place by 120 vectorized squarings of m
        lanes, once per key."""
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

    @functools.cached_property
    def in_group(self) -> bool:
        """Whether every element lies in the order-q subgroup."""
        return all(pow(e, Q, P) == 1 for e in self.elements)


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


def _tree_entries(limbs: np.ndarray, flat: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Lay out each digit's table entries as one run, and shorten the runs
    by a product tree.

    Digit flat[j] belongs to table entry j. One stable sort by digit, zeros
    dropped, lays each digit's entries out as one run. A level pads every
    odd run with the entry of one, which carries its last term up a level,
    and multiplies the pairs (2j, 2j + 1) in one vectorized Montgomery
    multiply per slice. The fold multiplies each entry left once, so a
    level spares it one Python multiply per pair it merges: sum_d
    floor(c_d / 2) over the run lengths c_d. A level runs only while that
    sum exceeds 255, since 255 Python multiplies cost less than a level's
    fixed numpy cost. Returns the entries left, as ints sorted by digit,
    each carrying one Montgomery factor R, and their counts per digit:
    counts[d - 1] for digit d.
    """
    # The sort's arrays stay local, so the first level frees them: held by
    # the caller, the argsort's 16m words cost page faults on every level
    # of every multi-exp at m = 2400.
    counts = np.bincount(flat, minlength=256)
    index, counts = np.argsort(flat, kind="stable")[counts[0] :], counts[1:]
    level = limbs
    while (counts >> 1).sum() > 255:
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
    return _from_limbs(np.take(level, index, axis=1)), counts


def _bucket_fold(key: CommitmentKey, digits: np.ndarray) -> int:
    """prod_k basis[k]^values[k] mod p, for the values whose little-endian
    bytes are the rows of the (m, width) uint8 array digits.

    The digits are read window-major, so digit (w, k) lines up with the
    term basis[k]^(256^w), entry w*m + k of the key's limb table, and the
    product tree over that table gives each digit's entries, at every
    width (`_tree_entries`). One fold from the largest digit d down
    multiplies each entry of d into the running product and the running
    product into the result, which returns prod_d (product of d's
    entries)^d. Every entry carries a factor R, so the result is
    multiplied once by R^-e, e the sum of d over the entries.
    """
    flat = digits.T.ravel()
    entries, counts = _tree_entries(key.limbs, flat)
    running = acc = 1
    end = len(entries)
    for c in counts[: int(flat.max(initial=0))][::-1].tolist():
        if c:
            for x in entries[end - c : end]:
                running = running * x % P
            end -= c
        acc = acc * running % P
    return acc * pow(_R_INV, int(np.arange(1, 256) @ counts), P) % P


def _digits(words: np.ndarray) -> np.ndarray:
    """The (m, width) uint8 view of the little-endian bytes of the values
    whose 64-bit words are the rows of the (m, 2) array words, cut to the
    byte length of (max high word, max low word): 0 if all values are 0."""
    bound = int(words[:, 1].max(initial=0)) << 64 | int(words[:, 0].max(initial=0))
    return words.view(np.uint8)[:, : (bound.bit_length() + 7) // 8]


# q's two 64-bit words: for a residue e whose top byte is 0x7f, q - e is e XOR q
_Q_WORDS = np.frombuffer(field.to_bytes(Q), "<u8")


def _multi_exp(key: CommitmentKey, exponents) -> int:
    """prod_k basis[k]^exponents[k] mod p, by the key's bucket fold.

    The exponents are a `FieldVector`, whose bytes are read in place, or
    ints, packed once: reduced mod q (negative ones included), which leaves
    the product alone since the basis lies in the order-q subgroup. Their
    64-bit words are read once. If some residue's top byte is 0x7f and every
    other's is 0 (small signed values; a random residue fails at once), each
    such e becomes its magnitude q - e, and the positives and the magnitudes
    fold separately over at most 15 windows: pos * neg^-1 mod p. Windows
    above the largest value are skipped; an all-zero vector gives 1.
    """
    words = FieldVector(exponents).digits().view("<u8")
    top = words[:, 1] >> 56
    neg = top == 0x7F
    if neg.any() and np.all(neg | (top == 0)):
        digits = _digits(words ^ (neg[:, None] * _Q_WORDS))
        neg = neg[:, None]
        return _bucket_fold(key, digits * ~neg) * pow(_bucket_fold(key, digits * neg), -1, P) % P
    digits = _digits(words)
    return _bucket_fold(key, digits) if digits.shape[1] else 1


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
    share: ShareVector,
    commitment: VectorCommitment,
    key: CommitmentKey,
    *,
    verified: Sequence[ShareVector] = (),
) -> bool:
    """Check prod_j C[j]^(i^j) == prod_k basis[k]^(share[k]), exponents mod q.

    `verified` holds shares that already passed this check against this
    same commitment; the answer is that of the plain check only under that
    precondition. Once it holds T = len(C) - 1 of them, the share is
    checked relative to them, by the integer Lagrange weights (D, w) of
    `shamir.integer_weights`:
    - with T + 1 or more, the first T + 1 fix the shared polynomial P, and
      the share passes iff D * share == sum_t w_t * verified_t = D * P(i),
      (D, w) taken at the share's index i: one limb combination in F_q,
      sum_t w_t * verified_t - D * share, tested for zero, and no group
      work;
    - with T, the first T and this share fix P, and the share passes iff
      prod_k basis[k]^V[k] == C[0]^D, V = sum_t w_t * s_t = D * P(0) over
      them, (D, w) taken at 0 (Feldman's identity).

    Write G(s) for prod_k basis[k]^s[k] and Delta = G(share) /
    prod_j C[j]^(i^j), so Delta = 1 iff the plain check passes. Each
    verified share has Delta = 1, and over the points x_t of the weights at
    x, sum_t w_t x_t^j = D x^j for 0 <= j <= T. When every C[j] lies in the
    order-q group, so do Delta and G of every vector, and D and each w_t
    are integers below 2^31 < q.

    The secret check agrees with the plain check exactly: G(V) = C[0]^D *
    Delta^(w_i), w_i this share's weight at 0, nonzero, so Delta^(w_i) = 1
    iff Delta = 1.

    The field check agrees with it up to the commitment's binding. With U
    = sum_t w_t * verified_t, G(U) = (prod_j C[j]^(i^j))^D. A share that
    passes has G(share)^D = G(U), so Delta^D = 1 and Delta = 1: the plain
    check passes, exactly. A share that fails has D * share != U, yet if
    the plain check passed, G(D * share) = G(U): two different exponent
    vectors with one G, a discrete-log relation among the generators,
    which would break the commitment's binding. Short of that, it fails
    the plain check too.

    For an honest aggregate, V is D times a sum of quantized gradients:
    small signed values, whose multi-exp takes the signed split's one- or
    two-byte folds in place of sixteen byte windows. The plain check runs
    with fewer than T verified shares, with verified indices that repeat
    or leave 1..q - 1 (or include the share's own, for the secret check),
    with a weight or D of 2^31 or more, or with a commitment element
    outside the order-q group.
    """
    if len(share.values) != len(key):
        return False
    elements = commitment.elements
    T = len(elements) - 1
    if len(verified) >= T and commitment.in_group:
        anchors = verified[: T + 1]
        if len(anchors) > T:
            weights = shamir.integer_weights(tuple(s.index for s in anchors), share.index)
            if weights is not None:
                d, w = weights
                vectors = [*(s.values for s in anchors), share.values]
                residue = FieldVector.combination([*w, -d], vectors)
                return not residue.to_bytes().strip(b"\0")  # the zero vector
        points = [*verified[:T], share]
        weights = shamir.integer_weights(tuple(s.index for s in points), 0)
        if weights is not None:
            d, w = weights
            secret = FieldVector.combination(w, [s.values for s in points])
            return _multi_exp(key, secret) == pow(elements[0], d, P)
    i = share.index
    lhs = 1
    ipow = 1  # i^j mod q
    for c in elements:
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
