import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SMALL_SESSION, TRAINING
from gradmarket.circuit import build_norm_circuit
from gradmarket.cli import main
from gradmarket.contract import GasTable, baseline_gas_estimate
from gradmarket.sim import SessionConfig, run_session, validation_indices

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_identical_outputs_on_replay(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SESSION)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", cfg, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--seed", "1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    log1 = out1.with_suffix(".json.txlog.jsonl").read_bytes()
    log2 = out2.with_suffix(".json.txlog.jsonl").read_bytes()
    assert log1 == log2
    report = json.loads(out1.read_text())
    assert report["phase"] == "Finished"
    record = json.loads(log1.decode().strip().split("\n")[0])
    assert set(record) == {
        "method", "caller", "gas", "phase_before", "phase_after", "stored_words_delta"
    }


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    bad.write_text(json.dumps({"unknown_field": 3}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # bytes that are not UTF-8: a byte-order mark of UTF-16 before "{"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"layers": 5},
        {"validate_layers": 2},
        {"malicious_dos": [1]},
        {"rho": "10"},
        {"gas_table": {"bogus": 1}},
        {"deposit": -1},
        {"rho": 0},
        {"malicious_dos": [{"id": 0, "behavior": "bad_share", "target_server": 9}]},
        {"rho_offset": -1000},
        {"rho_margin": -5.0},
        {"rho_margin": float("nan")},
        {"layers": [4.7, 8, 2]},
        {"layers": [True, 8, 2]},
        {"layers": ["4", 8, 2]},
        {"validate_layers": [2.9]},
        {"malicious_dos": [{"id": 1, "behavior": "random_gradient"},
                           {"id": 1, "behavior": "bad_share"}]},
        {"malicious_servers": [{"id": 2, "behavior": "corrupt_shares"},
                               {"id": 2, "behavior": "false_complaint"}]},
        {"gas_table": {"storage_word_write": -100000}},
        {"gas_table": {"tx_base": 1.9}},
        {"gas_table": {"field_op": True}},
        {"gas_table": {"hash_word": "36"}},
        {"malicious_dos": [{"id": True, "behavior": "random_gradient"}]},
        {"malicious_servers": [{"id": 2.0, "behavior": "corrupt_shares"}]},
        {"malicious_dos": [{"id": 0, "behavior": "bad_share", "target_server": 2.0}]},
        {"malicious_dos": [{"id": 0, "behavior": "bad_share", "taget_server": 3}]},
        {"malicious_dos": [{"id": 0, "behavior": "random_gradient", "factor": 2.0}]},
        {"malicious_servers": [{"id": 2, "behavior": "false_complaint", "mode": "all"}]},
        *({"malicious_dos": [{"id": 0, "behavior": "norm_attack", "factor": f}]}
          for f in (float("nan"), float("inf"), 1e308, 0, 1e-300)),
        {"scale_bits": 127},
        {"scale_bits": 200},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"data_scale": float("inf")},
        {"teacher_noise": float("nan")},
        {"mask_additive_sigma": float("nan")},
        {"init_scale": float("-inf")},
        {"mask_additive_sigma": -0.5},
        {"teacher_scale": -0.5},
        {"init_scale": -0.5},
        {"K": 2**31},
    ],
    ids=["layers-int", "validate_layers-int", "malicious_dos-int", "rho-str",
         "gas_table-key", "deposit-negative", "rho-zero", "target_server-range",
         "rho_offset-negative", "rho_margin-negative", "rho_margin-nan", "layers-float",
         "layers-bool", "layers-str", "validate_layers-float", "malicious_dos-duplicate",
         "malicious_servers-duplicate", "gas_table-negative", "gas_table-float",
         "gas_table-bool", "gas_table-str", "malicious_dos-id-bool",
         "malicious_servers-id-float", "target_server-float", "malicious_dos-misspelt-key",
         "malicious_dos-option-of-other-behavior", "malicious_servers-unknown-key",
         "factor-nan", "factor-inf", "factor-huge", "factor-zero", "factor-tiny",
         "scale_bits-127", "scale_bits-200", "eta-nan", "eta-inf", "data_scale-inf",
         "teacher_noise-nan", "mask_additive_sigma-nan", "init_scale-neg-inf",
         "mask_additive_sigma-negative", "teacher_scale-negative", "init_scale-negative",
         "K-2^31"],
)
def test_malformed_clean_config_override_exits_2(tmp_path, capsys, override):
    doc = dict(json.loads((CONFIGS / "clean.json").read_text()), **override)
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "r.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, override, who",
    [
        ("run", "clean.json", {"data_scale": 1e30}, "model owner's probe"),
        # the first update leaves the loss non-finite (the weights stay
        # finite, near 1e298), which ends training at once
        ("train", "train.json", {"eta": 1e300, "iterations": 3}, "iteration 1"),
        ("train", "train.json", {"eta": 1e300, "iterations": 1}, "iteration 1"),
        ("run", "clean.json",
         {"scale_bits": 126, "malicious_dos": [{"id": 0, "behavior": "random_gradient"}]},
         "data owner 0"),
    ],
    ids=["run-data_scale-1e30", "train-eta-1e300", "train-eta-1e300-iterations-1",
         "run-scale_bits-126"],
)
def test_unrepresentable_value_is_a_protocol_failure(tmp_path, command, config, override, who):
    # run in a child process: numpy's overflow warnings must not become errors
    cfg = _write_config(tmp_path, dict(json.loads((CONFIGS / config).read_text()), **override))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradmarket.cli", command, "--config", cfg, "--seed", "3",
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"protocol failure: {who}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_unknown_flag_rejected(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SESSION)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--frobnicate"])
    assert exc.value.code != 0


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code != 0


def test_train_writes_report_and_csv(tmp_path):
    doc = dict(TRAINING, iterations=2)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "train.json"
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["loss_curve"]) == 3
    csv_lines = (tmp_path / "train.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "iteration,mse"
    assert len(csv_lines) == 4


def test_train_out_with_csv_suffix_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # The loss curve goes to out.with_suffix(".csv"); with --out curve.csv it
    # would overwrite the JSON report.
    cfg = _write_config(tmp_path, dict(TRAINING, iterations=2))

    def fail(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("gradmarket.sim.run_training", fail)
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "curve.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_gas_compare_outputs_ratio(tmp_path):
    cfg = _write_config(tmp_path, SMALL_SESSION)
    out = tmp_path / "gas.json"
    assert main(["gas-compare", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {"m", "offchain", "baseline", "ratio"} <= set(doc)
    assert 0 < doc["ratio"] < 1


def test_gas_compare_m2400_config_meets_ratio_bound(tmp_path):
    # the shipped config gives a 2400-entry shared vector: (2+2)*(28*20+20*2)
    cfg = str(CONFIGS / "gas2400.json")
    out = tmp_path / "gas.json"
    assert main(["gas-compare", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 2400
    assert doc["ratio"] <= 0.10


def test_gas_compare_clean_config_golden_digest(tmp_path):
    # every value in the result is an integer count or a ratio of two, so
    # the file's bytes are the same on every machine
    out = tmp_path / "gas.json"
    cfg = str(CONFIGS / "clean.json")
    assert main(["gas-compare", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "38ffe7ccec2f80d28633e04c534594e678b6037435c93b158377cd5ca42802b6"
    )


def test_gas_compare_baseline_start_stores_rho_like_the_offchain_start(tmp_path):
    # both contracts store root, params and the norm bound at start
    out = tmp_path / "gas.json"
    cfg = str(CONFIGS / "clean.json")
    assert main(["gas-compare", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["baseline"]["per_method"]["start"] == doc["offchain"]["per_method"]["start"]


def test_gas_compare_prices_the_baseline_from_field_ops(tmp_path):
    # the baseline contract does one field op per mul gate and per lin term,
    # more than one per gate
    path = CONFIGS / "clean.json"
    out = tmp_path / "gas.json"
    assert main(["gas-compare", "--config", str(path), "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    config = SessionConfig.from_dict(json.loads(path.read_text()))
    rho = run_session(config, 3)["rho"]
    circuit = build_norm_circuit(len(validation_indices(config)), rho, accept_zero=True)
    assert circuit.field_ops > len(circuit.gates)
    table = GasTable.from_dict(config.gas_table)
    assert doc["baseline"] == baseline_gas_estimate(doc["m"], config.N, circuit.field_ops, table)


def test_gas_compare_baseline_only(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL_SESSION, rho=100))
    out = tmp_path / "gas.json"
    assert main(["gas-compare", "--config", cfg, "--baseline", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "baseline" in doc and "ratio" not in doc


def test_gas_compare_without_validation_uses_default_rho(tmp_path):
    doc = dict(json.loads((CONFIGS / "clean.json").read_text()), validation=False)
    cfg = _write_config(tmp_path, doc)
    out, base_out = tmp_path / "gas.json", tmp_path / "base.json"
    assert main(["gas-compare", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert main(["gas-compare", "--config", cfg, "--baseline", "--out", str(base_out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["baseline"] == json.loads(base_out.read_text())["baseline"]
    assert 0 < doc["ratio"] < 1


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all self-test checks passed" in out
    assert "FAIL" not in out


def test_cli_entrypoint_via_interpreter(tmp_path):
    # exercise the installed console path end to end
    cfg = _write_config(tmp_path, SMALL_SESSION)
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gradmarket.cli", "run", "--config", cfg,
         "--seed", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
