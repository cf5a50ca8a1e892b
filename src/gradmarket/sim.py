"""Deterministic orchestration of trading sessions and training runs.

One session wires together the model owner, N data owners, K off-chain
servers, and the contract, executing the full protocol: masked model
publication, verifiable gradient sharing with complaint arbitration,
secret-shared norm validation with robust on-chain reconstruction,
payment, and aggregate recovery at the model owner.

Every random draw flows from the run seed through named streams
(mo.*, do.<id>.*, server.<i>.*, contract.*), so any (config, seed) pair
replays to a byte-identical report. Message delivery between actors is
plain in-process orchestration in fixed actor-id order; the only
cross-server synchronization is the barriered d/e opening round of the
validity proof.

Adversary injection covers the four data-owner behaviors (random_gradient,
norm_attack, bad_share, tampered_proof) and two server behaviors
(corrupt_shares, false_complaint). Server corruption within the decoding
budget floor((K-T-1)/2) leaves the decrypted gradient bit-identical to a
clean run.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import commit as commit_mod
from . import perturb, snip
from .circuit import build_norm_circuit
from .commit import CommitmentKey, setup_key, verify_share
from .contract import GasTable, TradeContract, merkle_root
from .field import Q, FixedPointCodec
from .perturb import MlpModel, gradient_slices, random_model
from .shamir import ShareVector, ss_recon, ss_share

DO_BEHAVIORS = ("random_gradient", "norm_attack", "bad_share", "tampered_proof")
SERVER_BEHAVIORS = ("corrupt_shares", "false_complaint")


class ConfigError(Exception):
    """Malformed or inconsistent session configuration."""


class ProtocolError(Exception):
    """The session could not complete (guarantees exceeded or broken state)."""


@dataclass
class SessionConfig:
    layers: tuple[int, ...] = (4, 8, 2)
    N: int = 4
    K: int = 5
    T: int = 1
    rho: int | None = None  # None: the model owner calibrates it per session
    rho_margin: float = 4.0
    rho_offset: int = 64
    rho_cap: int = 1024
    scale_bits: int = 6
    deposit: int = 1000
    samples_per_do: int = 8
    mo_samples: int = 16
    eta: float = 0.05
    iterations: int = 1
    data_scale: float = 1.0
    teacher_scale: float = 0.5
    teacher_noise: float = 0.05
    init_scale: float = 0.5
    mask_additive_sigma: float = 1.0
    validation: bool = True
    validate_layers: tuple[int, ...] | None = None  # 1-indexed; None: all layers
    malicious_dos: tuple[dict, ...] = ()
    malicious_servers: tuple[dict, ...] = ()
    gas_table: dict = dc_field(default_factory=dict)
    register_timeout: int = 3

    def __post_init__(self):
        if len(self.layers) < 3:
            raise ConfigError("layers must describe an MLP with at least two weight layers")
        if any(n < 1 for n in self.layers):
            raise ConfigError("layer sizes must be positive")
        if self.N < 1:
            raise ConfigError("need at least one data owner")
        if self.T < 1 or self.K <= self.T + 1:
            raise ConfigError("need K > T + 1 >= 2 for robust reconstruction")
        if self.scale_bits < 1:
            raise ConfigError("scale_bits must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.samples_per_do < 1:
            raise ConfigError("samples_per_do must be >= 1")
        L = len(self.layers) - 1
        if self.validate_layers is not None:
            self.validate_layers = tuple(int(l) for l in self.validate_layers)
            if not self.validate_layers:
                raise ConfigError("validate_layers must name at least one layer")
            if any(not 1 <= l <= L for l in self.validate_layers):
                raise ConfigError("validate_layers entries must be in 1..L")
        do_ids = set(range(self.N))
        for spec in self.malicious_dos:
            if spec.get("behavior") not in DO_BEHAVIORS:
                raise ConfigError(f"unknown data-owner behavior {spec.get('behavior')!r}")
            if spec.get("id") not in do_ids:
                raise ConfigError("malicious_dos id out of range")
        for spec in self.malicious_servers:
            if spec.get("behavior") not in SERVER_BEHAVIORS:
                raise ConfigError(f"unknown server behavior {spec.get('behavior')!r}")
            if not 1 <= spec.get("id", 0) <= self.K:
                raise ConfigError("malicious_servers id must be in 1..K")

    @property
    def budget(self) -> int:
        return (self.K - self.T - 1) // 2

    @property
    def budget_exceeded(self) -> bool:
        return len(self.malicious_servers) > self.budget

    def to_dict(self) -> dict:
        return {
            "layers": list(self.layers),
            "N": self.N,
            "K": self.K,
            "T": self.T,
            "rho": self.rho,
            "rho_margin": self.rho_margin,
            "rho_offset": self.rho_offset,
            "rho_cap": self.rho_cap,
            "scale_bits": self.scale_bits,
            "deposit": self.deposit,
            "samples_per_do": self.samples_per_do,
            "mo_samples": self.mo_samples,
            "eta": self.eta,
            "iterations": self.iterations,
            "data_scale": self.data_scale,
            "teacher_scale": self.teacher_scale,
            "teacher_noise": self.teacher_noise,
            "init_scale": self.init_scale,
            "mask_additive_sigma": self.mask_additive_sigma,
            "validation": self.validation,
            "validate_layers": list(self.validate_layers) if self.validate_layers else None,
            "malicious_dos": [dict(d) for d in self.malicious_dos],
            "malicious_servers": [dict(d) for d in self.malicious_servers],
            "gas_table": dict(self.gas_table),
            "register_timeout": self.register_timeout,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        known = {
            "layers", "N", "K", "T", "rho", "rho_margin", "rho_offset", "rho_cap",
            "scale_bits", "deposit", "samples_per_do", "mo_samples", "eta",
            "iterations", "data_scale", "teacher_scale", "teacher_noise",
            "init_scale", "mask_additive_sigma", "validation", "validate_layers",
            "malicious_dos", "malicious_servers", "gas_table", "register_timeout",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "layers" in kwargs:
            kwargs["layers"] = tuple(int(n) for n in kwargs["layers"])
        if kwargs.get("validate_layers") is not None:
            kwargs["validate_layers"] = tuple(kwargs["validate_layers"])
        for key in ("malicious_dos", "malicious_servers"):
            if key in kwargs:
                kwargs[key] = tuple(dict(d) for d in kwargs[key])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Seeded randomness streams
# ---------------------------------------------------------------------------

def derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def rng_stream(seed: int, name: str) -> random.Random:
    return random.Random(derive_seed(seed, name))


def np_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, name))


# ---------------------------------------------------------------------------
# Synthetic world
# ---------------------------------------------------------------------------

@dataclass
class World:
    teacher: MlpModel
    model: MlpModel
    shards: list[tuple[np.ndarray, np.ndarray]]
    mo_data: tuple[np.ndarray, np.ndarray]


def _make_shard(config: SessionConfig, seed: int, name: str, teacher: MlpModel, count: int):
    rng = np_stream(seed, name)
    X = rng.normal(0.0, 1.0, (count, config.layers[0])) * config.data_scale
    Y = perturb.forward(teacher, X) + config.teacher_noise * rng.normal(
        0.0, 1.0, (count, config.layers[-1])
    )
    return X, Y


def build_world(config: SessionConfig, seed: int) -> World:
    teacher = random_model(config.layers, np_stream(seed, "teacher"), config.teacher_scale)
    model = random_model(config.layers, np_stream(seed, "mo.model"), config.init_scale)
    shards = [
        _make_shard(config, seed, f"do.{n}.data", teacher, config.samples_per_do)
        for n in range(config.N)
    ]
    mo_data = _make_shard(config, seed, "mo.data", teacher, config.mo_samples)
    return World(teacher=teacher, model=model, shards=shards, mo_data=mo_data)


def validation_indices(config: SessionConfig) -> list[int]:
    """Flat-vector indices validated by the norm circuit: the masked-gradient
    blocks of the chosen layers (all layers by default)."""
    slices = gradient_slices(config.layers)
    chosen = (
        range(1, len(config.layers))
        if config.validate_layers is None
        else config.validate_layers
    )
    idx = []
    for l in sorted(set(chosen)):
        start, length = slices[l - 1]
        idx.extend(range(start, start + length))
    return idx


def _signed(v: int) -> int:
    return v if v <= Q // 2 else v - Q


def quantized_norm_sq(values: list[int]) -> int:
    """Integer sum of squares of signed-decoded field values."""
    return sum(_signed(v) ** 2 for v in values)


# ---------------------------------------------------------------------------
# Session actors
# ---------------------------------------------------------------------------

@dataclass
class _DoState:
    do_id: int
    behavior: dict | None
    qvec: list[int] | None = None
    shares: list[ShareVector] | None = None
    sent_shares: dict[int, ShareVector] | None = None  # per server, possibly corrupted


def _do_behavior(config: SessionConfig, do_id: int) -> dict | None:
    for spec in config.malicious_dos:
        if spec["id"] == do_id:
            return spec
    return None


def _server_behavior(config: SessionConfig, i: int) -> str | None:
    for spec in config.malicious_servers:
        if spec["id"] == i:
            return spec["behavior"]
    return None


def run_session(config: SessionConfig, seed: int) -> dict:
    """Execute one full trading session from scratch; returns the report."""
    world = build_world(config, seed)
    m = perturb.flat_length(config.layers)
    key = setup_key(m, rng_stream(seed, "contract.setup"))
    return _run_session(config, seed, world, key)


def _run_session(
    config: SessionConfig, seed: int, world: World, key: CommitmentKey
) -> dict:
    codec = FixedPointCodec(config.scale_bits)
    sub_idx = validation_indices(config)
    do_ids = list(range(config.N))
    sim_events: list[dict] = []

    contract = TradeContract(
        deposit=config.deposit,
        whitelist=do_ids,
        K=config.K,
        T=config.T,
        commit_key=key,
        gas_table=GasTable.from_dict(config.gas_table),
        rng=rng_stream(seed, "contract.challenge"),
        validation=config.validation,
        register_timeout=config.register_timeout,
    )

    # Step 1: model publication
    mo_rng = np_stream(seed, "mo.masks")
    masks = perturb.sample_masks(config.layers, mo_rng, config.mask_additive_sigma)
    enc_model = perturb.apply_masks(world.model, masks)
    published = perturb.serialize_published_model(enc_model, masks.r_out)
    root = merkle_root(published)
    contract.start(root, M0=config.samples_per_do, N_max=config.N)
    for n in do_ids:
        contract.register(n)

    # The model owner calibrates the norm bound from its own probe gradient.
    rho = config.rho
    rho_clamped = False
    if config.validation:
        if rho is None:
            probe = perturb.encrypted_gradient(
                enc_model, masks.r_out, world.mo_data[0], world.mo_data[1]
            )
            probe_q = perturb.quantize_vector(perturb.flatten(probe), codec)
            probe_norm = quantized_norm_sq([probe_q[i] for i in sub_idx])
            rho = math.ceil(config.rho_margin * probe_norm) + config.rho_offset
        if rho > config.rho_cap:
            rho = config.rho_cap
            rho_clamped = True

    # Step 2: verifiable gradient sharing
    dos: dict[int, _DoState] = {}
    for n in do_ids:
        state = _DoState(do_id=n, behavior=_do_behavior(config, n))
        X, Y = world.shards[n]
        # integrity check of the retrieved model against the on-chain root
        if merkle_root(perturb.serialize_published_model(enc_model, masks.r_out)) != contract.root:
            raise ProtocolError(f"data owner {n}: published model fails root check")
        eg = perturb.encrypted_gradient(enc_model, masks.r_out, X, Y)
        flat = perturb.flatten(eg)
        adv = state.behavior
        if adv and adv["behavior"] == "random_gradient":
            arng = np_stream(seed, f"do.{n}.adversary")
            flat = arng.normal(0.0, 1.0, flat.shape)
        elif adv and adv["behavior"] == "norm_attack":
            factor = float(adv.get("factor", 8.0))
            scaled = flat * factor
            for _ in range(40):
                qs = perturb.quantize_vector(scaled, codec)
                if quantized_norm_sq([qs[i] for i in sub_idx]) > (rho or 0):
                    break
                scaled = scaled * 2.0
            flat = scaled
        state.qvec = perturb.quantize_vector(flat, codec)
        share_rng = rng_stream(seed, f"do.{n}.share")
        shares, z_masks = ss_share(state.qvec, config.T, config.K, share_rng)
        state.shares = shares
        commitment = commit_mod.commit(state.qvec, z_masks, key)
        contract.store_commitment(n, commitment)
        sent = {i: shares[i - 1] for i in range(1, config.K + 1)}
        if adv and adv["behavior"] == "bad_share":
            target = int(adv.get("target_server", 1))
            arng = rng_stream(seed, f"do.{n}.adversary")
            good = sent[target]
            bad_values = list(good.values)
            bad_values[0] = (bad_values[0] + arng.randrange(1, Q)) % Q
            sent[target] = ShareVector(index=target, values=tuple(bad_values))
        state.sent_shares = sent
        dos[n] = state

    # servers check their shares; failures and false complaints get arbitrated
    for i in range(1, config.K + 1):
        behavior = _server_behavior(config, i)
        for n in do_ids:
            share = dos[n].sent_shares[i]
            ok = verify_share(share, contract.commitments[n], key)
            if not ok:
                contract.complain(i, n)
                # the accused owner submits the share it delivered to server i
                contract.resolve_complaint(n, share)
            elif behavior == "false_complaint":
                contract.complain(i, n)
                contract.resolve_complaint(n, share)
    contract.mark_shares_ready()
    contract.begin_validation()

    # Step 3: private gradient validation
    if config.validation:
        circ = build_norm_circuit(len(sub_idx), rho, accept_zero=True)
        contract.reveal_circuit(circ)
        r = contract.sample_challenge()
        for n in sorted(contract.validity):
            state = dos[n]
            sub_q = [state.qvec[j] for j in sub_idx]
            sub_shares = [
                ShareVector(index=s.index, values=tuple(s.values[j] for j in sub_idx))
                for s in state.shares
            ]
            _, _, h = snip.compute_h(circ, sub_q)
            adv = state.behavior
            if adv and adv["behavior"] == "tampered_proof":
                arng = rng_stream(seed, f"do.{n}.adversary")
                pos = arng.randrange(len(h))
                h[pos] = (h[pos] + arng.randrange(1, Q)) % Q
            packages = snip.package_proof(
                sub_shares, h, config.T, config.K, rng_stream(seed, f"do.{n}.proof")
            )
            # round 1: local evaluation, then the barriered d/e opening
            states = {}
            d_bc = [0] * config.K
            e_bc = [0] * config.K
            for i in range(1, config.K + 1):
                st, d_i, e_i = snip.server_round1(packages[i - 1], circ, r)
                states[i] = st
                if _server_behavior(config, i) == "corrupt_shares":
                    srng = rng_stream(seed, f"server.{i}.adversary.{n}.open")
                    d_i, e_i = srng.randrange(Q), srng.randrange(Q)
                d_bc[i - 1], e_bc[i - 1] = d_i, e_i
            # round 2: every server reconstructs the openings and submits
            for i in range(1, config.K + 1):
                if _server_behavior(config, i) == "corrupt_shares":
                    srng = rng_stream(seed, f"server.{i}.adversary.{n}.verdict")
                    contract.submit_verdict(
                        i, n, srng.randrange(Q), srng.randrange(Q), False
                    )
                    continue
                verdict = snip.server_round2(states[i], d_bc, e_bc, config.T)
                contract.submit_verdict(
                    i,
                    n,
                    verdict.identity_share,
                    verdict.output_share,
                    verdict.decode_failed,
                )
    contract.complete_validation()

    # payment
    contract.pay()

    # Step 4: aggregated gradient reconstruction
    agg_commitment = contract.aggregate_commitment()
    validity = sorted(contract.validity)
    decrypted = None
    grad_error = None
    agg_failures: list[int] = []
    if validity:
        agg_shares = []
        for i in range(1, config.K + 1):
            vals = [0] * len(dos[validity[0]].qvec)
            for n in validity:
                sv = dos[n].sent_shares[i]
                vals = [(a + b) % Q for a, b in zip(vals, sv.values)]
            share = ShareVector(index=i, values=tuple(vals))
            if _server_behavior(config, i) == "corrupt_shares":
                srng = rng_stream(seed, f"server.{i}.adversary.aggregate")
                share = ShareVector(
                    index=i,
                    values=tuple(srng.randrange(Q) for _ in range(len(vals))),
                )
            agg_shares.append(share)
        passing = [
            s for s in agg_shares if verify_share(s, agg_commitment, key)
        ]
        failed = [s.index for s in agg_shares if s.index not in {p.index for p in passing}]
        for i in failed:
            sim_events.append({"event": "aggregate_share_rejected", "server": i})
        agg_failures = failed
        if len(passing) < config.T + 1:
            raise ProtocolError("too few verified aggregate shares to reconstruct")
        q_sum = ss_recon(passing[: config.T + 1], config.T)
        mean_vec = perturb.dequantize_vector(q_sum, codec) / len(validity)
        eg_mean = perturb.unflatten(mean_vec, config.layers)
        decrypted = perturb.decrypt_aggregate(eg_mean, masks)
        pooled = [
            perturb.plain_gradient(world.model, *world.shards[n]) for n in validity
        ]
        plain_mean = [
            sum(g[l] for g in pooled) / len(pooled)
            for l in range(len(config.layers) - 1)
        ]
        grad_error = max(
            float(np.max(np.abs(d - p))) for d, p in zip(decrypted, plain_mean)
        )
    contract.finish()

    report = {
        "seed": seed,
        "config": config.to_dict(),
        "phase": contract.phase,
        "rho": rho,
        "rho_clamped": rho_clamped,
        "challenge": str(contract.challenge) if contract.challenge is not None else None,
        "validity_set": validity,
        "payments": {str(k): v for k, v in sorted(contract.balances.items(), key=lambda kv: str(kv[0]))},
        "gas": contract.gas_report(),
        "on_chain_words": contract.on_chain_word_count(),
        "gradient_max_abs_error": grad_error,
        "decrypted_gradient": [g.ravel().tolist() for g in decrypted] if decrypted else None,
        "aggregate_share_failures": agg_failures,
        "adversary_budget_exceeded": config.budget_exceeded,
        "false_complaints": [list(fc) for fc in contract.false_complaints],
        "events": contract.events + sim_events,
        "transactions": contract.tx_log,
    }
    return report


def run_training(config: SessionConfig, seed: int) -> dict:
    """Iterated sessions with gradient-descent model updates.

    The synthetic data and initial model derive from the run seed; each
    iteration runs a full session with per-iteration randomness streams and
    applies W <- W - eta * gradient.
    """
    world = build_world(config, seed)
    m = perturb.flat_length(config.layers)
    # setup parameters are generated once and reused across all iterations
    key = setup_key(m, rng_stream(seed, "contract.setup"))
    pooled_X = np.concatenate([X for X, _ in world.shards])
    pooled_Y = np.concatenate([Y for _, Y in world.shards])

    curve = [[0, perturb.mse(world.model, pooled_X, pooled_Y)]]
    sessions = []
    for t in range(1, config.iterations + 1):
        report = _run_session(config, derive_seed(seed, f"iter.{t}"), world, key)
        if report["decrypted_gradient"] is not None:
            grads = [
                np.array(flat).reshape(world.model.weights[l].shape)
                for l, flat in enumerate(report["decrypted_gradient"])
            ]
            for w, g in zip(world.model.weights, grads):
                w -= config.eta * g
        sessions.append(
            {
                "iteration": t,
                "validity_set": report["validity_set"],
                "gas_total": report["gas"]["total"],
                "gradient_max_abs_error": report["gradient_max_abs_error"],
            }
        )
        curve.append([t, perturb.mse(world.model, pooled_X, pooled_Y)])

    return {
        "seed": seed,
        "config": config.to_dict(),
        "loss_curve": curve,
        "final_mse": curve[-1][1],
        "sessions": sessions,
    }


def loss_curve_csv(report: dict) -> str:
    lines = ["iteration,mse"]
    for it, value in report["loss_curve"]:
        lines.append(f"{it},{value!r}")
    return "\n".join(lines) + "\n"
