"""The benchmark's workloads: configs, input seeds, the fixed-rho guard and
the per-operation correctness checks.

An operation is one call of a public entry point: `sim.run_session`, or
`sim.run_training` with one iteration. Every workload runs both, on seeds
derived from the run seed, so that every end-to-end metric exists on every
workload; each workload is built to load one layer (see README.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from gradmarket import perturb, sim
from gradmarket.circuit import build_norm_circuit
from gradmarket.contract import GasTable, baseline_gas_estimate
from gradmarket.field import FixedPointCodec

MAX_GRAD_ERROR = 2.0 ** -2
MAX_GAS_RATIO = 0.10


class WorkloadError(Exception):
    """The workload cannot be run as defined at this seed."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_file: str
    overrides: dict
    primary: str  # the operation the workload is built around: "session" or "train"
    # expected outcome of every session and training iteration
    validity: list[int]
    aggregate_failures: list[int] = dc_field(default_factory=list)
    gas_ratio_check: bool = False

    def config(self, root: Path, **extra) -> sim.SessionConfig:
        doc = json.loads((root / "configs" / self.config_file).read_text())
        doc.update(self.overrides)
        doc.update(extra)
        return sim.SessionConfig.from_dict(doc)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-commit",
            why="m = 2400 with rho fixed at 64 (M = 104): 33 length-2400 multi-exps "
            "per session make the commitment layer about 90% of the time",
            config_file="gas2400.json",
            overrides={"rho": 64},
            primary="session",
            validity=[0, 1, 2, 3],
            gas_ratio_check=True,
        ),
        Workload(
            name="deep-proof",
            why="m = 192 with all 48 coordinates validated and rho fixed at 448 "
            "(M = 496): the O(M^2) proof arithmetic is over 90%, commit about 5%",
            config_file="clean.json",
            overrides={"rho": 448},
            primary="session",
            validity=[0, 1, 2, 3],
        ),
        Workload(
            name="train-adversarial",
            why="training with rho fixed at 128 (M = 144) under a bad share, a random "
            "gradient and a corrupt server: complaints, Gao decoding, share rejection",
            config_file="train_attacked.json",
            overrides={
                "rho": 128,
                "malicious_dos": [
                    {"id": 0, "behavior": "random_gradient"},
                    {"id": 1, "behavior": "bad_share", "target_server": 2},
                ],
                "malicious_servers": [{"id": 5, "behavior": "corrupt_shares"}],
            },
            primary="train",
            validity=[2, 3],
            aggregate_failures=[5],
        ),
    )
}


def op_seed(seed: int, k) -> int:
    """Input seed of the k-th operation of a run with the given seed."""
    digest = hashlib.sha256(f"gradmarket-bench/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def flat_length(config: sim.SessionConfig) -> int:
    """Length m of the flattened encrypted gradient."""
    sizes = config.layers
    return (sizes[-1] + 2) * sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))


def guard_rho(config: sim.SessionConfig, world_seed: int, session_seed: int) -> None:
    """Raise WorkloadError if a fixed rho would reject an honest owner.

    Recomputes every honest owner's quantized norm through public calls, as
    a session at session_seed on the world of world_seed will: both seeds
    are the seed of sim.run_session, and sim.run_training draws its first
    session's seed from its own. rho is never adjusted here.
    """
    if config.rho is None:
        return
    world = sim.build_world(config, world_seed)
    masks = perturb.sample_masks(
        config.layers, sim.np_stream(session_seed, "mo.masks"), config.mask_additive_sigma
    )
    enc_model = perturb.apply_masks(world.model, masks)
    codec = FixedPointCodec(config.scale_bits)
    sub_idx = sim.validation_indices(config)
    adversaries = {spec["id"] for spec in config.malicious_dos}
    for n in range(config.N):
        if n in adversaries:
            continue
        X, Y = world.shards[n]
        eg = perturb.encrypted_gradient(enc_model, masks.r_out, X, Y)
        q = perturb.quantize_vector(perturb.flatten(eg), codec)
        norm = sim.quantized_norm_sq([q[i] for i in sub_idx])
        if norm > config.rho:
            raise WorkloadError(
                f"seed {world_seed}/{session_seed}: honest owner {n} has quantized norm {norm} > rho {config.rho}"
            )


def check_session(wl: Workload, config: sim.SessionConfig, report: dict) -> list[str]:
    """Failed checks of one sim.run_session report (empty when it passes)."""
    bad = []
    if report["validity_set"] != wl.validity:
        bad.append(f"validity set {report['validity_set']} != {wl.validity}")
    share = config.deposit // len(wl.validity)
    expected = {str(n): share for n in wl.validity}
    if report["payments"] != expected:
        bad.append(f"payments {report['payments']} != {expected}")
    error = report["gradient_max_abs_error"]
    if error is None or error > MAX_GRAD_ERROR:
        bad.append(f"gradient error {error} > {MAX_GRAD_ERROR}")
    if report["aggregate_share_failures"] != wl.aggregate_failures:
        bad.append(
            f"rejected aggregate shares {report['aggregate_share_failures']} "
            f"!= {wl.aggregate_failures}"
        )
    if wl.gas_ratio_check:
        gates = len(
            build_norm_circuit(len(sim.validation_indices(config)), report["rho"], accept_zero=True).gates
        )
        baseline = baseline_gas_estimate(
            flat_length(config), config.N, gates, GasTable.from_dict(config.gas_table)
        )
        ratio = report["gas"]["total"] / baseline["total"]
        if ratio > MAX_GAS_RATIO:
            bad.append(f"gas ratio {ratio:.4f} > {MAX_GAS_RATIO}")
    return bad


def check_iteration(wl: Workload, session: dict) -> list[str]:
    """Failed checks of one sim.run_training iteration (empty when it passes)."""
    bad = []
    if session["validity_set"] != wl.validity:
        bad.append(f"iteration {session['iteration']}: validity set {session['validity_set']}")
    error = session["gradient_max_abs_error"]
    if error is None or error > MAX_GRAD_ERROR:
        bad.append(f"iteration {session['iteration']}: gradient error {error}")
    return bad
