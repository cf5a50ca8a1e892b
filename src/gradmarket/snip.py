"""Secret-shared non-interactive proof of circuit validity over Shamir shares.

The client (gradient owner) evaluates the validity circuit. With f, g the
degree-(M-1) polynomials through the left/right inputs of the M
multiplication gates (f(t) = u_t, g(t) = v_t for t = 1..M), it
Shamir-shares h = f * g in evaluation form, as h(1), ..., h(2M-1), with
one Beaver triple. Each server evaluates the circuit on its input share,
looking up its share of h(t) as the output of multiplication gate t, and
the group runs one polynomial identity test at a public random point r:

    r * h(r) - (r * fhat(r)) * ghat(r) == 0,

with the product computed through the Beaver triple so every on-wire value
stays a degree-T Shamir share; [h](r) is one O(M) barycentric evaluation.
Each server function takes the server's own verified input share next to
the owner's package: a proof is never checked over the owner's copy.
`identity_test` runs round 1 for all K servers, opens the Beaver values d
and e once from their broadcast, and forms every server's verdict share
from that pair. The test passes
where r * (h - f*g)(r) - (c - a*b), a polynomial of degree at most 2M-1
in r, vanishes; unless h = f*g and c = a*b it is nonzero, so a cheating
prover survives with probability at most (2M-1)/q over r. The scaling by
r is Prio's SNIP (Corrigan-Gibbs and Boneh, NSDI 2017): without it, a
triple with c = a*b + delta cancels a shift of h by delta.
A tampered value at t <= M breaks h(t) = u_t * v_t, since a gate's inputs
do not depend on its own output.

One Beaver triple per proof suffices: the protocol performs exactly one
secure multiplication. Triples are prover-supplied; with an ill-formed
triple, a cheating owner passes with probability at most (2M-1)/q over r,
and server privacy never depends on triple well-formedness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import field
from .circuit import Circuit, MulTrace, _run_gates, eval_plain
from .field import Q
from .shamir import DecodeFailure, ShareVector, robust_recon, ss_share


@dataclass(frozen=True)
class ProverPackage:
    """Per-server proof material.

    h_coeff_shares[j] is this server's Shamir share of h(j + 1), j < 2M-1:
    h's coefficients in the Lagrange basis on 1..2M-1 (the name is kept for
    the benchmark tracer). triple holds shares of (a, b, c = a*b). Both
    are cut from one share of the vector h || (a, b, c).

    share is the owner's wire copy of the server's input share, which no
    server reads; it stays for the benchmark's byte formulas, and ROADMAP
    item 18 drops it once they move.

    Packages pass between actors as objects; `to_bytes` gives the wire
    form only to count a proof's bytes, and nothing decodes it.
    """

    share: ShareVector
    h_coeff_shares: tuple[int, ...]
    triple: tuple[int, int, int]

    def to_bytes(self) -> bytes:
        """Wire format: input ShareVector || h value shares || (a, b, c)."""
        body = self.share.to_bytes()
        body += b"".join(field.to_bytes(v) for v in self.h_coeff_shares)
        body += b"".join(field.to_bytes(v) for v in self.triple)
        return body


def compute_h(circ: Circuit, inputs: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Return (f, g, h) as their values at 1..2M-1, with h = f * g pointwise.

    f and g (degree <= M-1) are the trace at 1..M, extended to M+1..2M-1.
    """
    _, trace = eval_plain(circ, inputs)
    M = len(trace)
    if M == 0:
        raise ValueError("circuit has no multiplication gates; nothing to prove")
    dom = field.eval_domain(M)
    f = trace.left + dom.extend(trace.left)
    g = trace.right + dom.extend(trace.right)
    h = [u * v % Q for u, v in zip(f, g)]
    return f, g, h


def package_proof(
    input_shares: list[ShareVector],
    h_values: list[int],
    T: int,
    K: int,
    rng,
) -> list[ProverPackage]:
    """Draw a Beaver triple (a, b, a*b) and Shamir-share h's values and the
    triple across K servers as one vector h || (a, b, a*b)."""
    if len(input_shares) != K:
        raise ValueError("need one input share per server")
    a = field.rand_element(rng)
    b = field.rand_element(rng)
    shares, _ = ss_share([*h_values, a, b, a * b % Q], T, K, rng)
    n = len(h_values)
    packages = []
    for share, s in zip(input_shares, shares):
        values = s.values.tolist()  # one decode per share, then cut
        packages.append(
            ProverPackage(share=share, h_coeff_shares=tuple(values[:n]), triple=tuple(values[n:]))
        )
    return packages


def prove(
    inputs: list[int],
    circ: Circuit,
    T: int,
    K: int,
    rng,
    *,
    input_shares: list[ShareVector],
) -> list[ProverPackage]:
    """Produce the K prover packages for a circuit input over the shares of
    it that the servers were delivered, one per server."""
    _, _, h = compute_h(circ, inputs)
    return package_proof(input_shares, h, T, K, rng)


def server_eval(share: ShareVector, pkg: ProverPackage, circ: Circuit) -> tuple[int, MulTrace]:
    """Evaluate the circuit on this server's input share; the same (output,
    MulTrace) form as eval_plain, holding this server's shares.

    Lin gates are local (a public constant is its own share at every index,
    and a public combination of shares is a share of the combination); each
    multiplication gate t takes its output share [h(t)]_i from the package,
    and the trace records its input shares ([f(t)]_i, [g(t)]_i).
    """
    if circ.num_mul and len(pkg.h_coeff_shares) != 2 * circ.num_mul - 1:
        raise ValueError("h share count does not match the circuit")
    h_next = iter(pkg.h_coeff_shares).__next__
    return _run_gates(circ, share.values, lambda u, v: h_next())


@dataclass(frozen=True)
class VerdictShares:
    """What a server submits: shares of the identity value and circuit output.

    decode_failed marks a robust-reconstruction failure during the d/e
    opening, which is attributable to an inconsistent sharing by the prover.
    """

    identity_share: int
    output_share: int
    decode_failed: bool = False


def server_round1(
    share: ShareVector, pkg: ProverPackage, circ: Circuit, r: int
) -> tuple[int, int, int, int]:
    """First identity-test round over this server's input share: its shares
    ([d], [e], [h(r)], [output]), of which it broadcasts [d] and [e].

    d = r * fhat(r) - a and e = ghat(r) - b open safely; a and b act as
    one-time pads.
    """
    output_share, trace = server_eval(share, pkg, circ)
    M = len(trace)
    if M == 0:
        raise ValueError("circuit has no multiplication gates; nothing to check")
    dom = field.eval_domain(M)
    f_r = dom.interpolate_at(trace.left, r)
    g_r = dom.interpolate_at(trace.right, r)
    h_r = field.eval_domain(2 * M - 1).interpolate_at(pkg.h_coeff_shares, r)
    a, b, _ = pkg.triple
    return (r * f_r - a) % Q, (g_r - b) % Q, h_r, output_share


def identity_test(
    shares: list[ShareVector], packages: list[ProverPackage], circ: Circuit, r: int, T: int,
    lies: dict | None = None,
) -> list[VerdictShares]:
    """Both rounds for one proof, with the verdicts in share order.

    packages[j] is the owner's package for the server that holds shares[j].
    Every server runs round 1, and the servers broadcast their (d, e)
    shares behind a barrier; lies[i] replaces the pair of server i, if it
    has a share. d and e are opened once, robustly, from that one
    broadcast: up to floor((K'-T-1)/2) of its K' pairs may be garbage, and
    past that every server flags decode_failed. The Beaver identity gives
    each server's share of r * fhat(r) * ghat(r) as d*e + d*[b] + e*[a] + [c],
    which its verdict share checks against r * [h(r)].
    """
    rounds = [server_round1(s, p, circ, r) for s, p in zip(shares, packages, strict=True)]
    broadcast = {s.index: (lies or {}).get(s.index, rd[:2]) for s, rd in zip(shares, rounds)}
    xs = sorted(broadcast)
    try:
        d = robust_recon(xs, [broadcast[i][0] for i in xs], T)
        e = robust_recon(xs, [broadcast[i][1] for i in xs], T)
    except DecodeFailure:
        return [VerdictShares(identity_share=0, output_share=0, decode_failed=True)] * len(rounds)
    verdicts = []
    for pkg, (_, _, h_r, output_share) in zip(packages, rounds):
        a, b, c = pkg.triple
        identity = r * h_r - (d * e + d * b + e * a + c)
        verdicts.append(VerdictShares(identity % Q, output_share))
    return verdicts
