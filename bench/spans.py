"""Span tracing of the gradmarket layers, applied from outside the package.

`tracing(K)` replaces every public function of field, circuit, shamir,
commit, snip, perturb and contract, the `TradeContract` methods, and the
entry points `sim.run_session`, `sim.run_training` and `sim.build_world`
with wrappers that record a span per call. A wrapper is bound wherever the
original is bound: modules that took a name with `from ... import` hold
their own reference, so every `gradmarket.*` module attribute that is the
original function is replaced, and all of them are restored on exit.

A span's self time is its duration minus the time of its child spans.
Spans are aggregated as they close, by name; spans directly under an entry
point are also summed by actor (do, server, mo, contract) and by the
contract phase read when they start. Byte counts come from the wire
formats, so nothing is serialized.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("field", "circuit", "shamir", "commit", "snip", "perturb", "contract")
SIM_FUNCTIONS = ("run_session", "run_training", "build_world")

# Scalar field operations run millions of times per session. A span each
# would cost more than the operation, so they stay unwrapped and their time
# counts toward the calling span.
UNWRAPPED = {
    "field": {"add", "sub", "mul", "neg", "inv", "rand_element", "to_bytes", "from_bytes"},
}

# Actors of the spans directly under an entry point, where the function
# alone decides it; the others are decided in Tracer._actor. The simulator's
# own work (building the world, the reference gradient) is actor "sim",
# which is not reported.
FIXED_ACTOR = {
    "perturb.sample_masks": "mo",
    "perturb.apply_masks": "mo",
    "circuit.build_norm_circuit": "mo",
    "shamir.ss_recon": "mo",
    "perturb.dequantize_vector": "mo",
    "perturb.unflatten": "mo",
    "perturb.decrypt_aggregate": "mo",
    "shamir.ss_share": "do",
    "commit.commit": "do",
    "snip.compute_h": "do",
    "snip.package_proof": "do",
    "snip.server_eval": "server",
    "snip.server_round1": "server",
    "snip.server_round2": "server",
    "commit.setup_key": "contract",
    "sim.build_world": "sim",
    "perturb.plain_gradient": "sim",
    "perturb.mse": "sim",
}

ACTORS = ("do", "server", "mo", "contract")
PHASES = ("ShareCollection", "GradValidation", "Reconstruction")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("commit.setup_key.s", "s"),
    ("commit.commit.s", "s"),
    ("commit.commit.calls", "count"),
    ("commit.verify_share.s", "s"),
    ("commit.verify_share.calls", "count"),
    ("commit.verify_share.failed", "count"),
    ("commit.multiexp_terms", "count"),
    ("commit.aggregate_commitments.s", "s"),
    ("commit.s", "s"),
    ("snip.compute_h.s", "s"),
    ("snip.package_proof.s", "s"),
    ("snip.server_eval.s", "s"),
    ("snip.server_round1.s", "s"),
    ("snip.server_round1.calls", "count"),
    ("snip.server_round2.s", "s"),
    ("snip.proofs", "count"),
    ("snip.proof_bytes", "bytes"),
    ("snip.s", "s"),
    ("field.poly_interpolate.s", "s"),
    ("field.poly_interpolate.calls", "count"),
    ("field.poly_interpolate.max_points", "count"),
    ("field.poly_mul.s", "s"),
    ("field.poly_eval.s", "s"),
    ("field.poly_eval.calls", "count"),
    ("field.s", "s"),
    ("circuit.num_mul", "count"),
    ("circuit.num_gates", "count"),
    ("circuit.eval_plain.s", "s"),
    ("circuit.build_norm_circuit.s", "s"),
    ("circuit.s", "s"),
    ("shamir.ss_share.s", "s"),
    ("shamir.ss_share.calls", "count"),
    ("shamir.ss_recon.s", "s"),
    ("shamir.gao_decode.s", "s"),
    ("shamir.gao_decode.calls", "count"),
    ("shamir.decode_failures", "count"),
    ("shamir.s", "s"),
    ("perturb.encrypted_gradient.s", "s"),
    ("perturb.encrypted_gradient.calls", "count"),
    ("perturb.quantize_vector.s", "s"),
    ("perturb.decrypt_aggregate.s", "s"),
    ("perturb.plain_gradient.s", "s"),
    ("perturb.s", "s"),
    ("contract.tx_count", "count"),
    ("contract.tx_rejected", "count"),
    ("contract.gas_total", "gas"),
    ("contract.on_chain_words", "words"),
    ("contract.complaints_upheld", "count"),
    ("contract.resolve_complaint.s", "s"),
    ("contract.submit_verdict.s", "s"),
    ("contract.s", "s"),
    ("sim.sessions", "count"),
    ("sim.self_s", "s"),
    ("phase.ShareCollection.s", "s"),
    ("phase.GradValidation.s", "s"),
    ("phase.Reconstruction.s", "s"),
    ("actor.do.s", "s"),
    ("actor.server.s", "s"),
    ("actor.mo.s", "s"),
    ("actor.contract.s", "s"),
    ("bytes.do_to_server", "bytes"),
    ("bytes.do_to_contract", "bytes"),
    ("bytes.server_to_server", "bytes"),
    ("bytes.server_to_contract", "bytes"),
    ("bytes.server_to_mo", "bytes"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
]


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------

def share_vector_bytes(length: int) -> int:
    """`ShareVector.to_bytes`: 4-byte index, 4-byte length, 16-byte elements."""
    from gradmarket import field

    return 8 + field.ELEMENT_BYTES * length


def prover_package_bytes(sub_length: int, num_mul: int) -> int:
    """`ProverPackage.to_bytes`: input share, 2M-1 h-coefficient shares, a triple."""
    from gradmarket import field

    return share_vector_bytes(sub_length) + field.ELEMENT_BYTES * (2 * num_mul - 1 + 3)


def commitment_bytes(T: int) -> int:
    """`VectorCommitment.to_bytes`: T+1 group elements."""
    from gradmarket import commit

    return (T + 1) * commit.GROUP_ELEMENT_BYTES


def opening_bytes() -> int:
    """One server's d and e shares of the identity test, sent to one peer."""
    from gradmarket import field

    return 2 * field.ELEMENT_BYTES


def _nonzero(values) -> int:
    return sum(1 for v in values if v)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class _Span:
    __slots__ = ("parent", "child", "top")

    def __init__(self, parent):
        self.parent = parent
        self.child = 0.0  # seconds covered by child spans
        self.top = parent is not None and parent.parent is None


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self, K: int):
        self.K = K
        self.stack: list[_Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.by_actor: dict[str, float] = defaultdict(float)
        self.by_phase: dict[str, float] = defaultdict(float)
        self.contracts: list = []
        self.world = None
        self.aggregate = None
        self._actor_now = "mo"

    def _phase(self) -> str:
        return self.contracts[-1].phase if self.contracts else "Setup"

    def _actor(self, name: str, args: dict) -> str:
        if name in FIXED_ACTOR:
            return FIXED_ACTOR[name]
        if name.startswith("contract.") and name != "contract.merkle_root":
            return "contract"
        if name == "commit.aggregate_commitments":
            return "contract"
        if name in ("contract.merkle_root", "perturb.serialize_published_model"):
            # the MO publishes before the contract starts; owners re-check after
            return "mo" if self._phase() == "Setup" else "do"
        if name == "perturb.encrypted_gradient":
            probe = self.world is not None and args["X"] is self.world.mo_data[0]
            self._actor_now = "mo" if probe else "do"
            return self._actor_now
        if name == "commit.verify_share":
            return "mo" if args["commitment"] is self.aggregate else "server"
        return self._actor_now

    def call(self, name, fn, signature, hook, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = _Span(parent)
        bound = None
        if hook is not None or span.top:
            bound = signature.bind(*args, **kwargs).arguments
        if span.top:
            phase = self._phase()
            actor = self._actor(name, bound)
        self.stack.append(span)
        error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self.stack.pop()
            self.self_s[name] += elapsed - span.child
            self.calls[name] += 1
            if error is not None:
                self.errors[(name, error)] += 1
            if parent is not None:
                parent.child += elapsed
            if span.top:
                self.by_phase[phase] += elapsed
                self.by_actor[actor] += elapsed
        if hook is not None:
            hook(self, span, bound, result)
        return result

    def metrics(self, op_s: float, untraced_op_s: float) -> dict[str, float]:
        """Every PER_LAYER metric by name, given the traced and untraced
        seconds of the operation at nominal speed (speed.py)."""
        out: dict[str, float] = {}
        layer_s: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[f"{name}.s"] = seconds
            out[f"{name}.calls"] = self.calls[name]
            layer, _, _ = name.partition(".")
            layer_s[layer] += seconds
        for layer in LAYERS:
            out[f"{layer}.s"] = layer_s[layer]
        out.update(self.counts)
        out.update(self.maxima)
        out["shamir.decode_failures"] = self.errors[("shamir.gao_decode", "DecodeFailure")]
        out["contract.tx_rejected"] = sum(
            n for (name, err), n in self.errors.items()
            if name.startswith("contract.") and err == "TxRejected"
        )
        out["contract.tx_count"] = sum(len(c.tx_log) for c in self.contracts)
        out["contract.gas_total"] = sum(c.meter.total for c in self.contracts)
        out["contract.on_chain_words"] = sum(c.on_chain_word_count() for c in self.contracts)
        out["contract.complaints_upheld"] = sum(
            1 for c in self.contracts for e in c.events if e["event"] == "complaint_upheld"
        )
        out["sim.sessions"] = len(self.contracts)
        out["sim.self_s"] = self.self_s["sim.run_session"] + self.self_s["sim.run_training"]
        for phase in PHASES:
            out[f"phase.{phase}.s"] = self.by_phase[phase]
        for actor in ACTORS:
            out[f"actor.{actor}.s"] = self.by_actor[actor]
        out["trace.op_s"] = op_s
        out["trace.untraced_op_s"] = untraced_op_s
        out["trace.overhead_s"] = op_s - untraced_op_s
        return {name: out.get(name, 0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Counters, updated after a wrapped call returns
# ---------------------------------------------------------------------------

def _on_commit(tr, span, a, result):
    tr.counts["commit.multiexp_terms"] += _nonzero(a["secret"]) + sum(
        _nonzero(z) for z in a["masks"]
    )


def _on_verify_share(tr, span, a, result):
    tr.counts["commit.multiexp_terms"] += _nonzero(a["share"].values)
    if not result:
        tr.counts["commit.verify_share.failed"] += 1
    if span.top and a["commitment"] is tr.aggregate:
        tr.counts["bytes.server_to_mo"] += share_vector_bytes(len(a["share"].values))


def _on_ss_share(tr, span, a, result):
    if span.top:  # an owner sharing its gradient; proofs share inside package_proof
        shares, _ = result
        tr.counts["bytes.do_to_server"] += len(shares) * share_vector_bytes(len(a["secret"]))


def _on_package_proof(tr, span, a, result):
    size = sum(
        prover_package_bytes(len(p.share.values), (len(p.h_coeff_shares) + 1) // 2)
        for p in result
    )
    tr.counts["snip.proofs"] += 1
    tr.counts["snip.proof_bytes"] += size
    tr.counts["bytes.do_to_server"] += size


def _on_server_round1(tr, span, a, result):
    tr.counts["bytes.server_to_server"] += (tr.K - 1) * opening_bytes()


def _on_submit_verdict(tr, span, a, result):
    tr.counts["bytes.server_to_contract"] += opening_bytes()


def _on_store_commitment(tr, span, a, result):
    tr.counts["bytes.do_to_contract"] += commitment_bytes(len(a["commitment"].elements) - 1)


def _on_resolve_complaint(tr, span, a, result):
    tr.counts["bytes.do_to_contract"] += share_vector_bytes(len(a["share"].values))


def _on_aggregate_commitment(tr, span, a, result):
    tr.aggregate = result


def _on_deploy(tr, span, a, result):
    tr.contracts.append(a["self"])


def _on_build_world(tr, span, a, result):
    tr.world = result


def _on_poly_interpolate(tr, span, a, result):
    key = "field.poly_interpolate.max_points"
    tr.maxima[key] = max(tr.maxima[key], len(a["points"]))


def _on_build_norm_circuit(tr, span, a, result):
    tr.maxima["circuit.num_mul"] = max(tr.maxima["circuit.num_mul"], result.num_mul)
    tr.maxima["circuit.num_gates"] = max(tr.maxima["circuit.num_gates"], len(result.gates))


HOOKS = {
    "commit.commit": _on_commit,
    "commit.verify_share": _on_verify_share,
    "shamir.ss_share": _on_ss_share,
    "snip.package_proof": _on_package_proof,
    "snip.server_round1": _on_server_round1,
    "contract.submit_verdict": _on_submit_verdict,
    "contract.store_commitment": _on_store_commitment,
    "contract.resolve_complaint": _on_resolve_complaint,
    "contract.aggregate_commitment": _on_aggregate_commitment,
    "contract.deploy": _on_deploy,
    "sim.build_world": _on_build_world,
    "field.poly_interpolate": _on_poly_interpolate,
    "circuit.build_norm_circuit": _on_build_norm_circuit,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def _wrapper(tracer: Tracer, name: str, fn):
    signature = inspect.signature(fn)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, signature, hook, args, kwargs)

    return wrapped


def _module_functions():
    """(span name, function) for every module-level function to trace."""
    for layer in LAYERS:
        mod = importlib.import_module(f"gradmarket.{layer}")
        skip = UNWRAPPED.get(layer, set())
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
            ):
                yield f"{layer}.{attr}", value
    sim = importlib.import_module("gradmarket.sim")
    for attr in SIM_FUNCTIONS:
        yield f"sim.{attr}", getattr(sim, attr)


@contextlib.contextmanager
def tracing(K: int):
    """Trace every gradmarket layer for the duration of the block.

    K is the session's server count, which the d/e opening byte count needs.
    """
    tracer = Tracer(K)
    restore: list[tuple[object, str, object]] = []
    try:
        for name, fn in list(_module_functions()):
            wrapped = _wrapper(tracer, name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gradmarket" or mod_name.startswith("gradmarket.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        from gradmarket.contract import TradeContract

        for attr, fn in list(vars(TradeContract).items()):
            if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                name = "contract.deploy" if attr == "__init__" else f"contract.{attr}"
                restore.append((TradeContract, attr, fn))
                setattr(TradeContract, attr, _wrapper(tracer, name, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)
