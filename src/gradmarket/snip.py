"""Secret-shared non-interactive proof of circuit validity over Shamir shares.

The client (gradient owner) evaluates the validity circuit. With f, g the
degree-(M-1) polynomials through the left/right inputs of the M
multiplication gates (f(t) = u_t, g(t) = v_t for t = 1..M), it
Shamir-shares h = f * g in evaluation form, as h(1), ..., h(2M-1), with
one Beaver triple. Each server evaluates the circuit on its input share,
looking up its share of h(t) as the output of multiplication gate t, and
the group runs one polynomial identity test at a public random point r:

    h(r) - fhat(r) * ghat(r) == 0,

with the product computed through the Beaver triple so every on-wire value
stays a degree-T Shamir share; [h](r) is one O(M) barycentric evaluation.
`identity_test` runs both rounds for all K servers.
A cheating prover whose shared h disagrees with f * g survives with
probability at most deg(h - f*g)/q <= (2M-2)/q over r. A tampered value at
t <= M breaks h(t) = u_t * v_t, since a gate's inputs do not depend on its
own output.

One Beaver triple per proof suffices: the protocol performs exactly one
secure multiplication. Triples are prover-supplied; an ill-formed triple
only perturbs the identity test against the prover itself, and server
privacy never depends on triple well-formedness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import field
from .circuit import Circuit, MulTrace, _run_gates, eval_plain
from .field import Q
from .shamir import DecodeFailure, ShareVector, robust_recon_scalar, ss_share


@dataclass(frozen=True)
class ProverPackage:
    """Per-server proof material.

    h_coeff_shares[j] is this server's Shamir share of h(j + 1), j < 2M-1:
    h's coefficients in the Lagrange basis on 1..2M-1 (the name is kept for
    the benchmark tracer). triple holds shares of (a, b, c = a*b).
    """

    share: ShareVector
    h_coeff_shares: tuple[int, ...]
    triple: tuple[int, int, int]

    @property
    def index(self) -> int:
        return self.share.index

    def to_bytes(self) -> bytes:
        """Wire format: input ShareVector || h value shares || (a, b, c)."""
        body = self.share.to_bytes()
        body += b"".join(field.to_bytes(v) for v in self.h_coeff_shares)
        body += b"".join(field.to_bytes(v) for v in self.triple)
        return body

    @classmethod
    def from_bytes(cls, data: bytes, num_mul: int) -> "ProverPackage":
        if len(data) < 8:
            raise ValueError("prover package too short")
        share_len = int.from_bytes(data[4:8], "little")
        off = 8 + share_len * field.ELEMENT_BYTES
        share = ShareVector.from_bytes(data[:off])
        n_h = 2 * num_mul - 1
        need = off + (n_h + 3) * field.ELEMENT_BYTES
        if len(data) != need:
            raise ValueError("prover package length mismatch")
        step = field.ELEMENT_BYTES
        vals = [field.from_bytes(data[j : j + step]) for j in range(off, need, step)]
        return cls(
            share=share,
            h_coeff_shares=tuple(vals[:n_h]),
            triple=(vals[n_h], vals[n_h + 1], vals[n_h + 2]),
        )


def compute_h(circ: Circuit, inputs: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Return (f, g, h) as their values at 1..2M-1, with h = f * g pointwise.

    f and g (degree <= M-1) are the trace at 1..M, extended to M+1..2M-1.
    """
    _, trace = eval_plain(circ, inputs)
    M = len(trace)
    if M == 0:
        raise ValueError("circuit has no multiplication gates; nothing to prove")
    dom = field.eval_domain(M)
    f = trace.left + dom.extend(trace.left, M - 1)
    g = trace.right + dom.extend(trace.right, M - 1)
    h = [u * v % Q for u, v in zip(f, g)]
    return f, g, h


def package_proof(
    input_shares: list[ShareVector],
    h_values: list[int],
    T: int,
    K: int,
    rng,
) -> list[ProverPackage]:
    """Shamir-share h's values and one Beaver triple across K servers."""
    if len(input_shares) != K:
        raise ValueError("need one input share per server")
    h_shares, _ = ss_share(h_values, T, K, rng)
    a = field.rand_element(rng)
    b = field.rand_element(rng)
    c = field.mul(a, b)
    a_sh, _ = ss_share([a], T, K, rng)
    b_sh, _ = ss_share([b], T, K, rng)
    c_sh, _ = ss_share([c], T, K, rng)
    return [
        ProverPackage(
            share=input_shares[i],
            h_coeff_shares=h_shares[i].values,
            triple=(a_sh[i].values[0], b_sh[i].values[0], c_sh[i].values[0]),
        )
        for i in range(K)
    ]


def prove(
    inputs: list[int],
    circ: Circuit,
    T: int,
    K: int,
    rng,
    input_shares: list[ShareVector] | None = None,
) -> list[ProverPackage]:
    """Produce the K prover packages for a circuit input.

    When the input vector is already shared (the usual flow: sharing happens
    before the circuit is revealed), pass those shares so the proof binds to
    them; otherwise a fresh sharing is drawn from rng.
    """
    if input_shares is None:
        input_shares, _ = ss_share(inputs, T, K, rng)
    _, _, h = compute_h(circ, inputs)
    return package_proof(input_shares, h, T, K, rng)


def server_eval(pkg: ProverPackage, circ: Circuit) -> tuple[int, MulTrace]:
    """Evaluate the circuit on shares; the same (output, MulTrace) form as
    eval_plain, holding this server's shares.

    Input, constant, add, and sub gates are local (a public constant is its
    own share at every index); each multiplication gate t takes its output
    share [h(t)]_i from the package, and the trace records its input shares
    ([f(t)]_i, [g(t)]_i).
    """
    if circ.num_mul and len(pkg.h_coeff_shares) != 2 * circ.num_mul - 1:
        raise ValueError("h share count does not match the circuit")
    h_next = iter(pkg.h_coeff_shares).__next__
    return _run_gates(circ, pkg.share.values, lambda u, v: h_next())


@dataclass(frozen=True)
class CheckState:
    """Server-local state between the two rounds of the identity test."""

    index: int
    d_share: int
    e_share: int
    h_r_share: int
    a_share: int
    b_share: int
    c_share: int
    output_share: int


@dataclass(frozen=True)
class VerdictShares:
    """What a server submits: shares of the identity value and circuit output.

    decode_failed marks a robust-reconstruction failure during the d/e
    opening, which is attributable to an inconsistent sharing by the prover.
    """

    identity_share: int
    output_share: int
    decode_failed: bool = False


def server_round1(pkg: ProverPackage, circ: Circuit, r: int) -> CheckState:
    """First identity-test round: derive [d]_i and [e]_i, the state's
    broadcast shares.

    d = fhat(r) - a and e = ghat(r) - b open safely; a and b act as
    one-time pads.
    """
    output_share, trace = server_eval(pkg, circ)
    M = len(trace)
    if M == 0:
        raise ValueError("circuit has no multiplication gates; nothing to check")
    dom = field.eval_domain(M)
    f_r = dom.interpolate_at(trace.left, r)
    g_r = dom.interpolate_at(trace.right, r)
    h_r = field.eval_domain(2 * M - 1).interpolate_at(pkg.h_coeff_shares, r)
    a, b, c = pkg.triple
    return CheckState(
        index=pkg.index,
        d_share=field.sub(f_r, a),
        e_share=field.sub(g_r, b),
        h_r_share=h_r,
        a_share=a,
        b_share=b,
        c_share=c,
        output_share=output_share,
    )


def server_round2(
    state: CheckState, d_broadcast: list[int], e_broadcast: list[int], T: int
) -> VerdictShares:
    """Second round: open d and e robustly, then form the verdict shares.

    The broadcast lists hold every server's d/e share in index order 1..K;
    up to floor((K-T-1)/2) of them may be garbage. The Beaver identity
    gives the product share as d*e + d*[b] + e*[a] + [c].
    """
    try:
        d = robust_recon_scalar(d_broadcast, T)
        e = robust_recon_scalar(e_broadcast, T)
    except DecodeFailure:
        return VerdictShares(identity_share=0, output_share=0, decode_failed=True)
    prod_share = (
        field.mul(d, e)
        + field.mul(d, state.b_share)
        + field.mul(e, state.a_share)
        + state.c_share
    ) % Q
    return VerdictShares(
        identity_share=field.sub(state.h_r_share, prod_share),
        output_share=state.output_share,
    )


def identity_test(
    packages: list[ProverPackage], circ: Circuit, r: int, T: int, lies: dict | None = None
) -> list[VerdictShares]:
    """Both rounds for one proof: every server's round 1, the barriered d/e
    broadcast, then every server's round 2 verdict, in package order
    (packages[i - 1] is server i's). lies[i] replaces server i's (d, e)."""
    states = [server_round1(pkg, circ, r) for pkg in packages]
    pairs = [(lies or {}).get(st.index, (st.d_share, st.e_share)) for st in states]
    d_broadcast, e_broadcast = map(list, zip(*pairs))
    return [server_round2(st, d_broadcast, e_broadcast, T) for st in states]
