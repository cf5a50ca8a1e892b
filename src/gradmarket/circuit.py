"""Arithmetic-circuit IR, the norm-threshold circuit, and plain evaluation.

A circuit is a topologically ordered gate list over F_q with two gate
kinds. A mul gate multiplies two wires; evaluation records its left and
right inputs, which is the trace the secret-shared validity proof consumes.
A lin gate computes value + sum of c * wire over public constants, so it is
local on shares and adds nothing to the trace. The inputs are wires, not
gates.

The norm-threshold predicate for bound rho is the product

    (S - 1)(S - 2) ... (S - rho),    S = sum of squared inputs,

which is zero exactly when S falls in {1..rho}. With accept_zero=True a
leading (S - 0) factor is prepended so an all-zero input also passes;
sessions validate with that variant, built from the rho posted when the
contract starts, since a zero vector trivially satisfies the norm bound
but the bare product would reject it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .field import Q

MUL = "mul"
LIN = "lin"


@dataclass(frozen=True)
class Gate:
    kind: str
    a: int = 0  # MUL operand wires
    b: int = 0
    terms: tuple[tuple[int, int], ...] = ()  # LIN (wire, coefficient) pairs
    value: int = 0  # LIN constant


@dataclass(frozen=True)
class Circuit:
    """Gate list in topological order. Wires 0..num_inputs-1 are the inputs
    and gate g drives wire num_inputs + g; output names a wire."""

    num_inputs: int
    gates: tuple[Gate, ...]
    output: int

    @functools.cached_property
    def num_mul(self) -> int:
        return sum(g.kind == MUL for g in self.gates)

    @functools.cached_property
    def field_ops(self) -> int:
        """Field multiplications of one plain evaluation: one per mul gate
        and one per lin term."""
        return sum(1 if g.kind == MUL else len(g.terms) for g in self.gates)


class CircuitBuilder:
    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.gates: list[Gate] = []

    def _push(self, gate: Gate) -> int:
        self.gates.append(gate)
        return self.num_inputs + len(self.gates) - 1

    def input(self, k: int) -> int:
        """Input k's wire, which is k; adds no gate."""
        if not 0 <= k < self.num_inputs:
            raise ValueError("input index out of range")
        return k

    def _wire(self, w: int) -> int:
        """w, if it is an input or a gate already pushed; else ValueError."""
        if not 0 <= w < self.num_inputs + len(self.gates):
            raise ValueError(f"wire {w} does not exist yet")
        return w

    def mul(self, a: int, b: int) -> int:
        return self._push(Gate(MUL, a=self._wire(a), b=self._wire(b)))

    def lin(self, terms, value: int = 0) -> int:
        """value + sum of c * wire over (wire, c) terms, with public
        constants: affine, not a multiplication gate."""
        terms = tuple((self._wire(w), c % Q) for w, c in terms)
        return self._push(Gate(LIN, terms=terms, value=value % Q))

    def build(self, output: int) -> Circuit:
        self._wire(output)
        return Circuit(num_inputs=self.num_inputs, gates=tuple(self.gates), output=output)


def build_norm_circuit(m: int, rho: int, accept_zero: bool = False) -> Circuit:
    """Norm-threshold circuit on m inputs with bound rho.

    The d roots J (1..rho, or 0..rho with accept_zero) split into
    consecutive blocks of at most k = ceil(sqrt(d)) roots. Each block's
    monic polynomial prod_{j in block} (x - j) is expanded once and
    evaluated at S as one lin gate over the powers S, S^2, ..., S^k
    (Paterson-Stockmeyer baby steps), and the block values are multiplied
    together. The output is the same field element as the unary product
    prod_{j in J} (S - j) for every input.

    Multiplication gates: m squares, k - 1 powers and ceil(d/k) - 1 block
    products, so M <= m + 2k - 2. With one lin gate for S and one per
    block, the circuit has M + 1 + ceil(d/k) gates. The output is the last
    block product, or the single block's value when d = 1.

    The circuit is built once per (m, rho, accept_zero) in a process: every
    party derives it from the rho posted at `start`, and a Circuit is
    immutable, so all of them share one. A fixed rho repeats every session;
    a calibrated rho moves between sessions, so only the circuits of the two
    most recently used bounds are kept, and a miss costs one lookup.
    """
    return _norm_circuit(m, rho, accept_zero)


# A plain function over the cache keeps `build_norm_circuit` a function
# that per-call tracing can wrap, hits included.
@functools.lru_cache(maxsize=2)
def _norm_circuit(m: int, rho: int, accept_zero: bool) -> Circuit:
    if m < 1 or rho < 1:
        raise ValueError("need m >= 1 and rho >= 1")
    b = CircuitBuilder(m)
    squares = [b.mul(b.input(k), b.input(k)) for k in range(m)]
    total = b.lin([(s, 1) for s in squares])
    roots = range(0 if accept_zero else 1, rho + 1)
    k = math.isqrt(len(roots) - 1) + 1
    powers = [total]  # powers[i] is S^(i+1)
    for _ in range(k - 1):
        powers.append(b.mul(powers[-1], total))
    prod = None
    for start in range(0, len(roots), k):
        block = roots[start:start + k]
        coeffs = _monic_from_roots(block)
        value = b.lin(zip(powers, coeffs[1:]), coeffs[0])
        prod = value if prod is None else b.mul(prod, value)
    return b.build(prod)


def _monic_from_roots(roots) -> list[int]:
    """Coefficients of prod (x - j) over roots, constant term first; the last
    (leading) coefficient is 1. Integer arithmetic: the lin gate reduces mod q."""
    coeffs = [1]
    for j in roots:
        # multiply by (x - j): c_i <- c_{i-1} - j * c_i
        coeffs = [lo - j * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@dataclass
class MulTrace:
    """Left and right input values (or shares of them) of each
    multiplication gate, in gate order."""

    left: list[int]
    right: list[int]

    def __len__(self) -> int:
        return len(self.left)


def eval_plain(circuit: Circuit, inputs: list[int]) -> tuple[int, MulTrace]:
    """Gate-by-gate evaluation over F_q, recording the multiplication trace."""
    return _run_gates(circuit, [x % Q for x in inputs], lambda u, v: u * v % Q)


def _run_gates(circuit: Circuit, inputs: list[int], mul_rule) -> tuple[int, MulTrace]:
    """The gate loop of eval_plain and snip.server_eval: mul_rule(u, v) gives
    each multiplication gate's output, in gate order. Returns the output wire
    and the multiplication trace."""
    if len(inputs) != circuit.num_inputs:
        raise ValueError(
            f"circuit expects {circuit.num_inputs} inputs, got {len(inputs)}"
        )
    wires = list(inputs)
    trace = MulTrace(left=[], right=[])
    for g in circuit.gates:
        if g.kind == MUL:
            u, v = wires[g.a], wires[g.b]
            wires.append(mul_rule(u, v))
            trace.left.append(u)
            trace.right.append(v)
        elif g.kind == LIN:
            wires.append((g.value + sum(c * wires[w] for w, c in g.terms)) % Q)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    return wires[circuit.output], trace
