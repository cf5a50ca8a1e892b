"""Arithmetic-circuit IR, the norm-threshold circuit, and plain evaluation.

A circuit is a topologically ordered gate list over F_q; evaluation records
the left and right inputs of every multiplication gate, which is the trace
the secret-shared validity proof consumes. Every other gate (input, const,
add, sub, and cmul, a wire times a public constant) is affine, so it is
local on shares and adds nothing to the trace.

The norm-threshold predicate for bound rho is the product

    (S - 1)(S - 2) ... (S - rho),    S = sum of squared inputs,

which is zero exactly when S falls in {1..rho}. With accept_zero=True a
leading (S - 0) factor is prepended so an all-zero input also passes; the
contract uses that variant, since a zero vector trivially satisfies the
norm bound but the bare product would reject it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from . import field
from .field import Q

INPUT = "input"
CONST = "const"
ADD = "add"
SUB = "sub"
MUL = "mul"
CMUL = "cmul"


@dataclass(frozen=True)
class Gate:
    kind: str
    a: int = 0  # input index for INPUT, operand gate id otherwise
    b: int = 0
    value: int = 0  # CONST and CMUL only


@dataclass(frozen=True)
class Circuit:
    """Gate DAG in topological order; output names a gate id."""

    num_inputs: int
    gates: tuple[Gate, ...]
    output: int

    @functools.cached_property
    def num_mul(self) -> int:
        return sum(g.kind == MUL for g in self.gates)

    def to_json(self) -> str:
        gates = []
        for g in self.gates:
            if g.kind == INPUT:
                gates.append({"kind": INPUT, "k": g.a})
            elif g.kind == CONST:
                gates.append({"kind": CONST, "value": str(g.value)})
            elif g.kind == CMUL:
                gates.append({"kind": CMUL, "a": g.a, "value": str(g.value)})
            else:
                gates.append({"kind": g.kind, "a": g.a, "b": g.b})
        doc = {"inputs": self.num_inputs, "gates": gates, "output": self.output}
        return json.dumps(doc, sort_keys=True)


class CircuitBuilder:
    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.gates: list[Gate] = []

    def _push(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def input(self, k: int) -> int:
        if not 0 <= k < self.num_inputs:
            raise ValueError("input index out of range")
        return self._push(Gate(INPUT, a=k))

    def const(self, value: int) -> int:
        return self._push(Gate(CONST, value=value % Q))

    def add(self, a: int, b: int) -> int:
        return self._push(Gate(ADD, a=a, b=b))

    def sub(self, a: int, b: int) -> int:
        return self._push(Gate(SUB, a=a, b=b))

    def mul(self, a: int, b: int) -> int:
        return self._push(Gate(MUL, a=a, b=b))

    def cmul(self, a: int, value: int) -> int:
        """Wire a times a public constant: affine, not a multiplication gate."""
        return self._push(Gate(CMUL, a=a, value=value % Q))

    def build(self, output: int) -> Circuit:
        return Circuit(num_inputs=self.num_inputs, gates=tuple(self.gates), output=output)


def build_norm_circuit(m: int, rho: int, accept_zero: bool = False) -> Circuit:
    """Norm-threshold circuit on m inputs with bound rho.

    The d roots J (1..rho, or 0..rho with accept_zero) split into
    consecutive blocks of at most k = ceil(sqrt(d)) roots. Each block's
    monic polynomial prod_{j in block} (x - j) is expanded once and
    evaluated at S from the powers S, S^2, ..., S^k with cmul and add gates
    (Paterson-Stockmeyer baby steps), and the block values are multiplied
    together. The output is the same field element as the unary product
    prod_{j in J} (S - j) for every input.

    Multiplication gates: m squares, k - 1 powers and ceil(d/k) - 1 block
    products, so M <= m + 2k - 2. The output is the last block product, or
    the single block's value when d = 1.
    """
    if m < 1 or rho < 1:
        raise ValueError("need m >= 1 and rho >= 1")
    b = CircuitBuilder(m)
    squares = [b.mul(b.input(k), b.input(k)) for k in range(m)]
    total = squares[0]
    for s in squares[1:]:
        total = b.add(total, s)
    roots = range(0 if accept_zero else 1, rho + 1)
    k = math.isqrt(len(roots) - 1) + 1
    powers = [total]  # powers[i] is S^(i+1)
    for _ in range(k - 1):
        powers.append(b.mul(powers[-1], total))
    prod = None
    for start in range(0, len(roots), k):
        block = roots[start:start + k]
        coeffs = _monic_from_roots(block)
        value = b.const(coeffs[0])
        for c, power in zip(coeffs[1:-1], powers):
            value = b.add(value, b.cmul(power, c))
        value = b.add(value, powers[len(block) - 1])  # the monic term S^len(block)
        prod = value if prod is None else b.mul(prod, value)
    return b.build(prod)


def _monic_from_roots(roots) -> list[int]:
    """Coefficients of prod (x - j) over roots, constant term first; the last
    (leading) coefficient is 1. Integer arithmetic: cmul reduces mod q."""
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
    return _run_gates(circuit, [x % Q for x in inputs], field.mul)


def _run_gates(circuit: Circuit, inputs: list[int], mul_rule) -> tuple[int, MulTrace]:
    """The gate loop of eval_plain and snip.server_eval: mul_rule(u, v) gives
    each multiplication gate's output, in gate order. Returns the output wire
    and the multiplication trace."""
    if len(inputs) != circuit.num_inputs:
        raise ValueError(
            f"circuit expects {circuit.num_inputs} inputs, got {len(inputs)}"
        )
    wires = [0] * len(circuit.gates)
    trace = MulTrace(left=[], right=[])
    for gid, g in enumerate(circuit.gates):
        if g.kind == INPUT:
            wires[gid] = inputs[g.a]
        elif g.kind == CONST:
            wires[gid] = g.value
        elif g.kind == ADD:
            wires[gid] = field.add(wires[g.a], wires[g.b])
        elif g.kind == SUB:
            wires[gid] = field.sub(wires[g.a], wires[g.b])
        elif g.kind == CMUL:
            wires[gid] = wires[g.a] * g.value % Q
        elif g.kind == MUL:
            u, v = wires[g.a], wires[g.b]
            wires[gid] = mul_rule(u, v)
            trace.left.append(u)
            trace.right.append(v)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    return wires[circuit.output], trace
