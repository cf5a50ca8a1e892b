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
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import commit as commit_mod
from . import field, perturb, snip
from .circuit import build_norm_circuit
from .commit import CommitmentKey, setup_key, verify_share
from .contract import GasTable, TradeContract, merkle_root
from .field import HALF_Q, FieldVector, FixedPointCodec, Q
from .perturb import MlpModel, random_model
from .shamir import ShareVector, ss_recon, ss_share

DO_BEHAVIORS = ("random_gradient", "norm_attack", "bad_share", "tampered_proof")
SERVER_BEHAVIORS = ("corrupt_shares", "false_complaint")
# the one optional key each parameterized behavior accepts, with its default
SPEC_OPTIONS = {"bad_share": {"target_server": 1}}


class ConfigError(Exception):
    """Malformed or inconsistent session configuration."""


class ProtocolError(Exception):
    """The session could not complete (guarantees exceeded or broken state)."""


def _bounded(default, lo, hi=math.inf):
    """A config field whose value must lie in lo..hi."""
    return dc_field(default=default, metadata={"bounds": (lo, hi)})


@dataclass
class SessionConfig:
    """Each field states its type, default and range once; `__post_init__`
    adds only the rules on tuples and specs and those that relate two values."""

    layers: tuple[int, ...] = (4, 8, 2)
    N: int = _bounded(4, 1)
    K: int = _bounded(5, 3, 2**31 - 1)  # share_with_masks evaluates at x < 2^31
    T: int = _bounded(1, 1)
    rho: int | None = _bounded(None, 1)  # None: the model owner calibrates it per session
    rho_cap: int = _bounded(1024, 1)
    scale_bits: int = _bounded(6, 1, 126)
    deposit: int = _bounded(1000, 0)
    samples_per_do: int = _bounded(32, 1)
    mo_samples: int = _bounded(64, 1)
    eta: float = 0.05
    iterations: int = _bounded(1, 1)
    data_scale: float = 0.5
    mask_additive_sigma: float = _bounded(0.3, 0)
    validation: bool = True
    validate_layers: tuple[int, ...] | None = None  # 1-indexed; None: all layers
    malicious_dos: tuple[dict, ...] = ()
    malicious_servers: tuple[dict, ...] = ()
    gas_table: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            _check_scalar(f.name, f.type, getattr(self, f.name), *f.metadata.get("bounds", ()))
        self.layers = _int_tuple("layers", self.layers)
        if self.validate_layers is not None:
            self.validate_layers = _int_tuple("validate_layers", self.validate_layers)
        self.malicious_dos = _spec_tuple("malicious_dos", self.malicious_dos)
        self.malicious_servers = _spec_tuple("malicious_servers", self.malicious_servers)
        if not isinstance(self.gas_table, dict):
            raise ConfigError("gas_table must be an object")
        try:
            GasTable.from_dict(self.gas_table)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"gas_table: {exc}") from exc
        self.gas_table = dict(self.gas_table)

        if len(self.layers) < 3:
            raise ConfigError("layers must describe an MLP with at least two weight layers")
        if any(n < 1 for n in self.layers):
            raise ConfigError("layer sizes must be positive")
        if self.K <= self.T + 1:
            raise ConfigError("need K > T + 1 for robust reconstruction")
        L = len(self.layers) - 1
        if self.validate_layers is not None:
            if not self.validate_layers:
                raise ConfigError("validate_layers must name at least one layer")
            if any(not 1 <= l <= L for l in self.validate_layers):
                raise ConfigError("validate_layers entries must be in 1..L")
        servers = range(1, self.K + 1)
        for spec in self.malicious_dos:
            _check_spec("malicious_dos", spec, DO_BEHAVIORS, range(self.N))
            # an omitted option takes its default from SPEC_OPTIONS, which is in range
            if "target_server" in spec and spec["target_server"] not in servers:
                raise ConfigError("bad_share target_server must be in 1..K")
        for spec in self.malicious_servers:
            _check_spec("malicious_servers", spec, SERVER_BEHAVIORS, servers)
        for name in ("malicious_dos", "malicious_servers"):
            ids = [spec["id"] for spec in getattr(self, name)]
            if len(set(ids)) != len(ids):
                raise ConfigError(f"{name} ids must be distinct")

    @property
    def budget(self) -> int:
        return (self.K - self.T - 1) // 2

    @property
    def budget_exceeded(self) -> bool:
        return len(self.malicious_servers) > self.budget

    def to_dict(self) -> dict:
        """The JSON form of the config: tuples become lists, dicts are copied."""

        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            return dict(value) if isinstance(value, dict) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


# JSON types each scalar field accepts, keyed by its annotation text (the
# annotations are strings under `from __future__ import annotations`);
# bool is not a number here, and a float must be finite.
_SCALAR_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
}


def _check_scalar(name: str, annotation: str, value, lo=-math.inf, hi=math.inf) -> None:
    """Check a scalar's JSON type, finiteness and range lo..hi; other
    annotations pass unchecked."""
    allowed = _SCALAR_TYPES.get(annotation)
    if allowed is None:
        return
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be {annotation}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if value is not None and not lo <= value <= hi:
        expected = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def _int_tuple(name: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    for n in value:
        _check_scalar(f"{name} entries", "int", n)
    return tuple(value)


def _check_spec(name: str, spec: dict, behaviors: tuple[str, ...], ids: range) -> None:
    """An adversary spec names a known behavior and an integer id in range,
    and has no keys but those and the behavior's own option."""
    behavior = spec.get("behavior")
    if behavior not in behaviors:
        raise ConfigError(f"{name}: unknown behavior {behavior!r}")
    options = SPEC_OPTIONS.get(behavior, {})
    unknown = set(spec) - {"id", "behavior", *options}
    if unknown:
        raise ConfigError(f"{name}: unknown keys for {behavior}: {sorted(unknown)}")
    for key, default in options.items():
        if key in spec:  # an option has its default's type
            _check_scalar(f"{behavior} {key}", type(default).__name__, spec[key])
    _check_scalar(f"{name} id", "int", spec.get("id"))
    if spec["id"] not in ids:
        raise ConfigError(f"{name} id must be in {ids.start}..{ids.stop - 1}")


def _spec_tuple(name: str, value) -> tuple[dict, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(d, dict) for d in value):
        raise ConfigError(f"{name} must be a list of objects, got {value!r}")
    return tuple(dict(d) for d in value)


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
    model: MlpModel
    shards: list[tuple[np.ndarray, np.ndarray]]
    mo_data: tuple[np.ndarray, np.ndarray]


def _make_shard(config: SessionConfig, seed: int, name: str, teacher: MlpModel, count: int):
    rng = np_stream(seed, name)
    X = rng.normal(0.0, 1.0, (count, config.layers[0])) * config.data_scale
    Y = perturb.forward(teacher, X) + 0.05 * rng.normal(0.0, 1.0, (count, config.layers[-1]))
    return X, Y


def build_world(config: SessionConfig, seed: int) -> World:
    teacher = random_model(config.layers, np_stream(seed, "teacher"))
    model = random_model(config.layers, np_stream(seed, "mo.model"))
    shards = [
        _make_shard(config, seed, f"do.{n}.data", teacher, config.samples_per_do)
        for n in range(config.N)
    ]
    mo_data = _make_shard(config, seed, "mo.data", teacher, config.mo_samples)
    return World(model=model, shards=shards, mo_data=mo_data)


def validation_indices(config: SessionConfig) -> list[int]:
    """Flat-vector indices validated by the norm circuit: the masked gradient
    G of each chosen layer's block (all layers by default)."""
    chosen = config.validate_layers or range(1, len(config.layers))
    idx, start = [], 0
    for l, (depth, rows, cols) in enumerate(perturb.block_shapes(config.layers), 1):
        if l in chosen:
            idx.extend(range(start, start + rows * cols))
        start += depth * rows * cols
    return idx


def quantized_norm_sq(values: list[int]) -> int:
    """Integer sum of squares of signed-decoded field values."""
    return sum((v if v <= HALF_Q else v - Q) ** 2 for v in values)


def calibrated_rho(norm: int) -> int:
    """The model owner's norm bound for a probe gradient of quantized squared
    norm `norm`: six times it, plus 64 of slack so that the bound is >= 1."""
    return 6 * norm + 64


# ---------------------------------------------------------------------------
# Session phases
# ---------------------------------------------------------------------------

def run_session(config: SessionConfig, seed: int) -> dict:
    """Execute one full trading session from scratch; returns the report."""
    world = build_world(config, seed)
    m = perturb.flat_length(config.layers)
    key = setup_key(m, rng_stream(seed, "contract.setup"))
    return _run_session(config, seed, world, key).report()


def _run_session(config: SessionConfig, seed: int, world: World, key: CommitmentKey) -> _Session:
    session = _Session(config, seed, world, key)
    session.publish()
    session.share()
    session.complain()
    session.validate()
    session.contract.pay()
    session.aggregate()
    session.contract.finish()
    return session


class _Session:
    """One trading session's state, advanced by one method per protocol phase.

    Adversaries act in the phase their behavior belongs to: random_gradient,
    norm_attack and bad_share in `share`, false_complaint in `complain`,
    tampered_proof and corrupt_shares in `validate`, corrupt_shares again in
    `aggregate`.
    """

    def __init__(self, config: SessionConfig, seed: int, world: World, key: CommitmentKey):
        self.config, self.seed, self.world, self.key = config, seed, world, key
        self.codec = FixedPointCodec(config.scale_bits)
        # one index array, which every `FieldVector.take` of the session reads
        self.sub_idx = np.array(validation_indices(config), dtype=np.intp)
        self.do_ids = list(range(config.N))
        self.servers = range(1, config.K + 1)
        # each owner spec with its behavior's omitted options filled in
        self.do_specs = {
            s["id"]: {**SPEC_OPTIONS.get(s["behavior"], {}), **s} for s in config.malicious_dos
        }
        self.server_behaviors = {s["id"]: s["behavior"] for s in config.malicious_servers}
        self.contract = TradeContract(
            deposit=config.deposit,
            whitelist=self.do_ids,
            K=config.K,
            T=config.T,
            commit_key=key,
            gas_table=GasTable.from_dict(config.gas_table),
            rng=rng_stream(seed, "contract.challenge"),
        )
        self.qvecs: dict[int, FieldVector] = {}
        # per owner and server, the share as delivered (possibly corrupted)
        self.sent: dict[int, dict[int, ShareVector]] = {}

    def _sub_norm(self, qvec: list[int]) -> int:
        return quantized_norm_sq([qvec[i] for i in self.sub_idx.tolist()])

    def _behavior(self, n: int) -> str | None:
        return self.do_specs.get(n, {}).get("behavior")

    def _quantize(self, flat: np.ndarray, who: str) -> list[int]:
        """Quantize a flat gradient; a value the codec cannot represent (out of
        range, NaN or infinite) ends the session as a protocol failure."""
        try:
            return perturb.quantize_vector(flat, self.codec)
        except OverflowError as exc:
            raise ProtocolError(f"{who}: {exc}") from exc

    def publish(self):
        """Mask and publish the model, calibrate the norm bound rho, open the
        session with rho posted and register the owners."""
        config, world = self.config, self.world
        self.masks = perturb.sample_masks(
            config.layers, np_stream(self.seed, "mo.masks"), config.mask_additive_sigma
        )
        self.enc_model = perturb.apply_masks(world.model, self.masks)
        # The model owner calibrates the norm bound from its own probe
        # gradient, before any owner registers.
        self.rho, self.rho_clamped = config.rho, False
        if config.validation and self.rho is None:
            probe = perturb.encrypted_gradient(
                self.enc_model, self.masks.r_out, world.mo_data[0], world.mo_data[1]
            )
            probe_q = self._quantize(perturb.flatten(probe), "model owner's probe")
            self.rho = calibrated_rho(self._sub_norm(probe_q))
            if self.rho > config.rho_cap:
                self.rho, self.rho_clamped = config.rho_cap, True
        published = perturb.serialize_published_model(self.enc_model, self.masks.r_out)
        self.contract.start(
            merkle_root(published), N_max=config.N, rho=self.rho if config.validation else None,
        )
        for n in self.do_ids:
            self.contract.register(n)

    def share(self):
        """Each owner commits to its gradient on chain and sends each server a share."""
        config, seed = self.config, self.seed
        for n in self.do_ids:
            X, Y = self.world.shards[n]
            # integrity check of the retrieved model against the on-chain root
            published = perturb.serialize_published_model(self.enc_model, self.masks.r_out)
            if merkle_root(published) != self.contract.root:
                raise ProtocolError(f"data owner {n}: published model fails root check")
            eg = perturb.encrypted_gradient(self.enc_model, self.masks.r_out, X, Y)
            flat = perturb.flatten(eg)
            if self._behavior(n) == "random_gradient":
                flat = np_stream(seed, f"do.{n}.adversary").normal(0.0, 1.0, flat.shape)
            elif self._behavior(n) == "norm_attack":
                flat = flat * 8.0
                for _ in range(40):
                    if self._sub_norm(self._quantize(flat, f"data owner {n}")) > (self.rho or 0):
                        break
                    flat = flat * 2.0
            qvec = FieldVector(self._quantize(flat, f"data owner {n}"))
            shares, z_masks = ss_share(qvec, config.T, config.K, rng_stream(seed, f"do.{n}.share"))
            self.contract.store_commitment(n, commit_mod.commit(qvec, z_masks, self.key))
            sent = dict(zip(self.servers, shares))
            if self._behavior(n) == "bad_share":
                target = self.do_specs[n]["target_server"]
                values = list(sent[target].values)
                values[0] += rng_stream(seed, f"do.{n}.adversary").randrange(1, Q)
                sent[target] = ShareVector(index=target, values=values)
            self.qvecs[n], self.sent[n] = qvec, sent

    def complain(self):
        """Each server checks its shares; the contract arbitrates every complaint."""
        for i in self.servers:
            false_complaint = self.server_behaviors.get(i) == "false_complaint"
            for n in self.do_ids:
                share = self.sent[n][i]
                ok = verify_share(share, self.contract.commitments[n], self.key)
                if not ok or false_complaint:
                    self.contract.complain(i, n)
                    # the accused owner submits the share it delivered to server i
                    self.contract.resolve_complaint(n, share)
        self.contract.begin_validation()

    def validate(self):
        """Each owner in the validity set proves its norm bound to the servers.

        The circuit is the norm circuit for the rho posted at `start`. Every
        owner's proof packages reach the servers before the contract draws
        the challenge r; then the servers test each proof at r.
        """
        if self.contract.rho is not None:
            circ = build_norm_circuit(len(self.sub_idx), self.contract.rho, accept_zero=True)
            owners = sorted(self.contract.validity)
            # the validated slice of each share an owner delivered, cut once
            # for its packages and the servers' checks alike
            self.sub_shares = {
                n: [ShareVector(i, s.values.take(self.sub_idx)) for i, s in self.sent[n].items()]
                for n in owners
            }
            packages = {n: self._prove(n, circ) for n in owners}
            r = self.contract.sample_challenge()
            for n in owners:
                self._test_proof(n, packages[n], circ, r)

    def _prove(self, n: int, circ) -> list[snip.ProverPackage]:
        """Owner n's proof packages, one per server, over its validated slice."""
        config, seed = self.config, self.seed
        _, _, h = snip.compute_h(circ, self.qvecs[n].take(self.sub_idx).tolist())
        if self._behavior(n) == "tampered_proof":
            arng = rng_stream(seed, f"do.{n}.adversary")
            pos = arng.randrange(len(h))
            h[pos] = (h[pos] + arng.randrange(1, Q)) % Q
        return snip.package_proof(
            self.sub_shares[n], h, config.T, config.K, rng_stream(seed, f"do.{n}.proof")
        )

    def _test_proof(self, n: int, packages: list[snip.ProverPackage], circ, r: int):
        """The servers run both rounds on owner n's packages and post verdicts.

        Each server evaluates the circuit on the share it verified against
        the owner's commitment, not on the package's own copy of it.
        """
        config, seed = self.config, self.seed
        # a corrupt server broadcasts random d/e shares and submits a random verdict
        lies = {}
        for i in self.servers:
            if self.server_behaviors.get(i) == "corrupt_shares":
                orng = rng_stream(seed, f"server.{i}.adversary.{n}.open")
                lies[i] = (field.rand_element(orng), field.rand_element(orng))
        verdicts = snip.identity_test(self.sub_shares[n], packages, circ, r, config.T, lies)
        for i, v in zip(self.servers, verdicts):
            if i in lies:
                srng = rng_stream(seed, f"server.{i}.adversary.{n}.verdict")
                v = snip.VerdictShares(field.rand_element(srng), field.rand_element(srng))
            self.contract.submit_verdict(i, n, v.identity_share, v.output_share, v.decode_failed)

    def aggregate(self):
        """Servers sum the valid owners' shares; the model owner keeps the sums
        that match the aggregate commitment, reconstructs and decrypts.

        The model owner checks each summed share with the ones it has already
        accepted against the same aggregate commitment (`verify_share`'s
        precondition): once T are accepted, a share is checked through the
        aggregate secret it implies with them, D times a sum of quantized
        gradients, whose multi-exp is a few byte windows wide, not 16; once
        T + 1 are, a share is checked against their interpolation at its
        index in F_q, with no multi-exp. So at any K an honest aggregate
        costs T full-width multi-exps and one short one. Each answer is the
        plain check's (the F_q one unless the commitment's binding is
        broken), so the passing list, the failures and the reconstruction
        are unchanged.
        """
        config, world = self.config, self.world
        agg_commitment = self.contract.aggregate_commitment()
        self.validity = sorted(self.contract.validity)
        self.decrypted = self.grad_error = None
        self.agg_failures: list[int] = []
        if not self.validity:
            return
        passing = []
        for i in self.servers:
            share = ShareVector(
                index=i, values=FieldVector.sum(self.sent[n][i].values for n in self.validity)
            )
            if self.server_behaviors.get(i) == "corrupt_shares":
                srng = rng_stream(self.seed, f"server.{i}.adversary.aggregate")
                share = ShareVector(i, [field.rand_element(srng) for _ in range(len(share))])
            if verify_share(share, agg_commitment, self.key, verified=passing):
                passing.append(share)
            else:
                self.agg_failures.append(i)
        if len(passing) < config.T + 1:
            raise ProtocolError("too few verified aggregate shares to reconstruct")
        q_sum = ss_recon(passing[: config.T + 1], config.T)
        mean_vec = perturb.dequantize_vector(q_sum, self.codec) / len(self.validity)
        self.decrypted = perturb.decrypt_aggregate(
            perturb.unflatten(mean_vec, config.layers), self.masks
        )
        pooled = [perturb.plain_gradient(world.model, *world.shards[n]) for n in self.validity]
        plain_mean = [
            sum(g[l] for g in pooled) / len(pooled) for l in range(len(config.layers) - 1)
        ]
        self.grad_error = max(
            float(np.max(np.abs(d - p))) for d, p in zip(self.decrypted, plain_mean)
        )

    def report(self) -> dict:
        contract, decrypted = self.contract, self.decrypted
        return {
            "seed": self.seed,
            "config": self.config.to_dict(),
            "phase": contract.phase,
            "rho": contract.rho,
            "rho_clamped": self.rho_clamped,
            "challenge": str(contract.challenge) if contract.challenge is not None else None,
            "validity_set": self.validity,
            "payments": {str(k): v for k, v in sorted(contract.balances.items(), key=lambda kv: str(kv[0]))},
            "gas": contract.gas_report(),
            "on_chain_words": contract.on_chain_word_count(),
            "gradient_max_abs_error": self.grad_error,
            "decrypted_gradient": [g.ravel().tolist() for g in decrypted] if decrypted else None,
            "aggregate_share_failures": self.agg_failures,
            "adversary_budget_exceeded": self.config.budget_exceeded,
            "false_complaints": [list(fc) for fc in contract.false_complaints],
            "events": contract.events,
            "transactions": contract.tx_log,
        }


def run_training(config: SessionConfig, seed: int) -> dict:
    """Iterated sessions with gradient-descent model updates.

    The synthetic data and initial model derive from the run seed; each
    iteration runs a full session with per-iteration randomness streams and
    applies W <- W - eta * gradient. An update that leaves the weights or
    the loss non-finite is a ProtocolError naming the iteration.
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
        session = _run_session(config, derive_seed(seed, f"iter.{t}"), world, key)
        if session.decrypted is not None:
            for w, g in zip(world.model.weights, session.decrypted):
                w -= config.eta * g
        sessions.append(
            {
                "iteration": t,
                "validity_set": session.validity,
                "gas_total": session.contract.meter.total,
                "gradient_max_abs_error": session.grad_error,
            }
        )
        loss = perturb.mse(world.model, pooled_X, pooled_Y)
        if not (math.isfinite(loss) and all(np.isfinite(w).all() for w in world.model.weights)):
            raise ProtocolError(f"iteration {t}: the model update is not finite (mse {loss})")
        curve.append([t, loss])

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
