"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Tracing must change no output, and its counts must follow the protocol's
closed forms; the byte counts' wire-format formulas must match `to_bytes`;
the fixed-rho guard must reject a seed, never adjust rho; the speed probe
must sample and then restore the signal handler it replaced.
"""

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from gradmarket import commit, contract, field, shamir, sim, snip  # noqa: E402
from gradmarket.circuit import build_norm_circuit  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_the_code_s_workloads_and_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.PER_LAYER


def _bindings():
    """Where callers look the traced functions up."""
    return {
        "sim.verify_share": (sim, "verify_share"),
        "sim.setup_key": (sim, "setup_key"),
        "sim.ss_share": (sim, "ss_share"),
        "sim.ss_recon": (sim, "ss_recon"),
        "contract.verify_share": (contract, "verify_share"),
        "snip.server_eval": (snip, "server_eval"),
        "field.poly_eval": (field, "poly_eval"),
        "field.poly_interpolate": (field, "poly_interpolate"),
        "TradeContract.submit_verdict": (contract.TradeContract, "submit_verdict"),
    }


def test_traced_session_is_byte_identical_and_counts_follow_closed_forms():
    config = workloads.WORKLOADS["wide-commit"].config(ROOT)
    seed = 1
    workloads.guard_rho(config, seed, seed)
    plain = sim.run_session(config, seed)
    originals = {k: getattr(*where) for k, where in _bindings().items()}

    with spans.tracing(config.K) as tracer:
        wrapped = {k: getattr(*where) for k, where in _bindings().items()}
        traced = sim.run_session(config, seed)

    assert all(wrapped[k] is not originals[k] for k in originals)
    assert all(getattr(*where) is originals[k] for k, where in _bindings().items())
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)

    N, K = config.N, config.K
    assert tracer.calls["commit.commit"] == N
    assert tracer.calls["commit.verify_share"] == K * N + K
    assert tracer.calls["snip.compute_h"] == N
    assert tracer.calls["snip.server_round1"] == N * K
    metrics = tracer.metrics(op_s=1.0, untraced_op_s=1.0)
    assert metrics["sim.sessions"] == 1
    assert metrics["commit.verify_share.failed"] == 0
    assert metrics["bytes.server_to_server"] == N * K * (K - 1) * spans.opening_bytes()
    assert metrics["bytes.server_to_contract"] == N * K * spans.opening_bytes()
    assert metrics["shamir.decode_failures"] == 0


def test_wire_byte_formulas_match_to_bytes():
    rng = random.Random(5)
    T, K = 1, 5
    inputs = [3, 0, field.Q - 2]
    shares, masks = shamir.ss_share(inputs, T, K, rng)
    assert spans.share_vector_bytes(len(inputs)) == len(shares[0].to_bytes())

    circ = build_norm_circuit(len(inputs), 20, accept_zero=True)
    packages = snip.prove(inputs, circ, T, K, rng, input_shares=shares)
    assert spans.prover_package_bytes(len(inputs), circ.num_mul) == len(packages[0].to_bytes())

    key = commit.setup_key(len(inputs), rng)
    assert spans.commitment_bytes(T) == len(commit.commit(inputs, masks, key).to_bytes())

    d, e = field.rand_element(rng), field.rand_element(rng)
    assert spans.opening_bytes() == len(field.to_bytes(d) + field.to_bytes(e))


def test_rho_guard_rejects_without_changing_rho():
    config = workloads.WORKLOADS["deep-proof"].config(ROOT, rho=1)
    with pytest.raises(workloads.WorkloadError):
        workloads.guard_rho(config, 1, 1)
    assert config.rho == 1


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(probe.speeds) >= 3 and all(s > 0 for s in probe.speeds)
    assert probe.mean_speed(len(probe.speeds)) == probe.speeds[-1]
    assert signal.getsignal(signal.SIGALRM) is before
