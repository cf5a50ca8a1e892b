import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SMALL_SESSION, probe_vector, small_session_config, training_config
from gradmarket import circuit, commit, perturb, sim, snip
from gradmarket.commit import setup_key
from gradmarket.contract import TradeContract, expected_word_count
from gradmarket.field import FieldVector
from gradmarket.shamir import ss_share
from gradmarket.sim import (
    DO_BEHAVIORS,
    SERVER_BEHAVIORS,
    ConfigError,
    SessionConfig,
    build_world,
    loss_curve_csv,
    run_session,
    run_training,
    validation_indices,
)


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        SessionConfig(K=2, T=1)  # K must exceed T + 1
    with pytest.raises(ConfigError):
        SessionConfig(layers=(4, 2))
    with pytest.raises(ConfigError):
        SessionConfig(validate_layers=())
    with pytest.raises(ConfigError):
        SessionConfig(malicious_dos=({"id": 0, "behavior": "nonsense"},))
    with pytest.raises(ConfigError):
        SessionConfig(malicious_servers=({"id": 99, "behavior": "corrupt_shares"},))
    with pytest.raises(ConfigError):
        SessionConfig.from_dict({"bogus_key": 1})


def test_config_roundtrip():
    cfg = small_session_config(malicious_dos=({"id": 1, "behavior": "random_gradient"},))
    again = SessionConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_schema_is_the_dataclass_fields():
    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert paths
    names = {f.name for f in dataclasses.fields(SessionConfig)}
    for path in paths:
        cfg = SessionConfig.from_dict(json.loads(path.read_text()))
        doc = cfg.to_dict()
        assert set(doc) == names, path.name
        assert SessionConfig.from_dict(doc) == cfg, path.name
        assert SessionConfig.from_dict(doc).to_dict() == doc, path.name
    # the constructor and from_dict normalise through the same path
    doc = {
        "layers": [4, 8, 2],
        "validate_layers": [2],
        "malicious_dos": [{"id": 0, "behavior": "bad_share"}],
    }
    assert SessionConfig(**doc) == SessionConfig.from_dict(doc)
    assert SessionConfig(**doc).layers == (4, 8, 2)


def test_config_rejects_register_timeout():
    with pytest.raises(ConfigError, match="register_timeout"):
        SessionConfig.from_dict({"register_timeout": 3})


@pytest.mark.parametrize("key, value", [("teacher_scale", 0.5), ("teacher_noise", 0.05),
                                        ("init_scale", 0.5), ("rho_offset", 64),
                                        ("rho_margin", 6.0)])
def test_config_rejects_removed_knobs(key, value):
    # these are now constants at their one use; their old defaults are rejected too
    with pytest.raises(ConfigError, match=key):
        SessionConfig.from_dict({key: value})


def test_config_bounds_are_declared_on_their_fields():
    bounded = {f.name: f.metadata["bounds"] for f in dataclasses.fields(SessionConfig)
               if "bounds" in f.metadata}
    assert set(bounded) == {"N", "K", "T", "rho", "rho_cap", "scale_bits",
                            "deposit", "samples_per_do", "mo_samples", "iterations",
                            "mask_additive_sigma"}
    for name, (lo, hi) in bounded.items():
        edges = {lo: True, lo - 1: False}
        if hi != math.inf:
            edges.update({hi: True, hi + 1: False})
        for value, accepted in edges.items():
            if accepted:
                assert getattr(SessionConfig(**{name: value}), name) == value
            else:
                with pytest.raises(ConfigError, match=f"{name} must be"):
                    SessionConfig(**{name: value})


def test_the_default_config_is_clean_json():
    # `{}` runs the clean market; deep-proof runs clean.json, whose unset keys
    # (rho_cap, eta, ...) take the defaults, so no default moves it unnoticed
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    clean = SessionConfig.from_dict(json.loads(path.read_text()))
    assert SessionConfig().to_dict() == clean.to_dict()


def test_readme_config_table_matches_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {key.strip().strip("`"): json.loads(default.strip().strip("`"))
             for key, default in rows}
    defaults = SessionConfig().to_dict()
    assert list(table) == list(defaults)
    # canonical JSON, so 4.0 and 4 differ
    assert {k: json.dumps(v) for k, v in table.items()} == {
        k: json.dumps(v) for k, v in defaults.items()
    }


def test_validation_indices_default_and_per_layer():
    cfg = small_session_config(validate_layers=None)
    idx = validation_indices(cfg)
    assert len(idx) == 32 + 16  # both masked-gradient blocks
    cfg2 = small_session_config(validate_layers=(2,))
    assert len(validation_indices(cfg2)) == 16
    # layer 1's block is 4 * 32 long (G, sigma_1, sigma_2, beta), so layer
    # 2's G starts at 128
    assert idx == list(range(32)) + list(range(128, 144))
    assert validation_indices(cfg2) == list(range(128, 144))
    doubled = small_session_config(validate_layers=(2, 2))
    assert validation_indices(doubled) == validation_indices(cfg2)


def test_clean_session(small_config):
    report = run_session(small_config, 1)
    assert report["phase"] == "Finished"
    assert report["validity_set"] == [0, 1, 2, 3]
    s = small_config.scale_bits
    assert report["gradient_max_abs_error"] <= 2 ** (-s + 4)
    assert report["payments"] == {"0": 250, "1": 250, "2": 250, "3": 250}
    assert not report["adversary_budget_exceeded"]


def test_session_determinism(small_config):
    a = run_session(small_config, 42)
    b = run_session(small_config, 42)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_session(small_config, 43)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_random_gradient_owner_excluded_and_unpaid():
    cfg = small_session_config(malicious_dos=({"id": 2, "behavior": "random_gradient"},))
    report = run_session(cfg, 3)
    assert report["validity_set"] == [0, 1, 3]
    assert "2" not in report["payments"]
    assert all(report["payments"][str(n)] == 333 for n in (0, 1, 3))
    assert {"event": "gradient_rejected", "phase": "GradValidation", "do": 2} in report["events"]


def test_norm_attack_owner_excluded():
    cfg = small_session_config(malicious_dos=({"id": 0, "behavior": "norm_attack"},))
    report = run_session(cfg, 3)
    assert 0 not in report["validity_set"]
    assert sorted(report["validity_set"]) == [1, 2, 3]


def test_bad_share_owner_excluded_by_complaint():
    cfg = small_session_config(malicious_dos=({"id": 1, "behavior": "bad_share", "target_server": 2},))
    report = run_session(cfg, 3)
    assert 1 not in report["validity_set"]
    upheld = [e for e in report["events"] if e["event"] == "complaint_upheld"]
    assert upheld and upheld[0]["do"] == 1 and upheld[0]["server"] == 2


def test_tampered_proof_owner_excluded():
    cfg = small_session_config(malicious_dos=({"id": 3, "behavior": "tampered_proof"},))
    report = run_session(cfg, 3)
    assert 3 not in report["validity_set"]


def test_false_complaint_dismissed_and_recorded():
    cfg = small_session_config(malicious_servers=({"id": 4, "behavior": "false_complaint"},))
    report = run_session(cfg, 3)
    assert report["validity_set"] == [0, 1, 2, 3]
    assert [4, 0] in report["false_complaints"]
    clean = run_session(small_session_config(), 3)
    # arbitration leaves the decrypted gradient untouched
    assert report["decrypted_gradient"] == clean["decrypted_gradient"]


def test_corrupt_server_within_budget_is_bit_transparent():
    cfg = small_session_config(malicious_servers=({"id": 3, "behavior": "corrupt_shares"},))
    clean = run_session(small_session_config(), 9)
    attacked = run_session(cfg, 9)
    assert attacked["aggregate_share_failures"] == [3]
    assert clean["aggregate_share_failures"] == []
    assert not attacked["adversary_budget_exceeded"]
    # apart from the echoed config and the rejection of the corrupt server's
    # aggregate share, the reports agree bitwise
    def strip(report):
        out = dict(report)
        for key in ("config", "events", "aggregate_share_failures"):
            out.pop(key)
        return json.dumps(out, sort_keys=True)
    assert strip(attacked) == strip(clean)
    assert attacked["events"] == clean["events"]


def _clean_session(**overrides) -> sim._Session:
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    config = SessionConfig.from_dict({**json.loads(path.read_text()), **overrides})
    world = build_world(config, 3)
    return sim._run_session(config, 3, world, setup_key(perturb.flat_length(config.layers), None))


def test_the_model_owner_runs_t_full_width_folds(monkeypatch):
    # the first T summed shares take the plain check's 16 byte windows; each
    # later one is checked through the short aggregate secret it implies
    widths = []
    fold, aggregate = commit._bucket_fold, sim._Session.aggregate

    def recorded(key, digits):
        widths.append(digits.shape[1])
        return fold(key, digits)

    def recorded_aggregate(self):
        monkeypatch.setattr(commit, "_bucket_fold", recorded)
        try:
            aggregate(self)
        finally:
            monkeypatch.setattr(commit, "_bucket_fold", fold)

    monkeypatch.setattr(sim._Session, "aggregate", recorded_aggregate)
    session = _clean_session()
    assert session.agg_failures == []
    assert widths.count(16) == session.config.T == 1
    assert max(w for w in widths if w != 16) <= 2


@pytest.mark.parametrize("K, T", [(5, 1), (7, 2)])
def test_the_model_owner_runs_t_plus_one_multi_exps(K, T, monkeypatch):
    # T plain checks and one through the short aggregate secret; the
    # K - T - 1 shares after those T + 1 are checked in F_q alone
    calls = []
    multi_exp, aggregate = commit._multi_exp, sim._Session.aggregate

    def counted(key, exponents):
        calls.append(len(exponents))
        return multi_exp(key, exponents)

    def recorded_aggregate(self):
        monkeypatch.setattr(commit, "_multi_exp", counted)
        try:
            aggregate(self)
        finally:
            monkeypatch.setattr(commit, "_multi_exp", multi_exp)

    monkeypatch.setattr(sim._Session, "aggregate", recorded_aggregate)
    session = _clean_session(K=K, T=T)
    assert session.agg_failures == []
    assert session.decrypted is not None
    assert len(calls) == T + 1


def test_a_corrupt_first_server_leaves_the_decrypted_gradient():
    # server 1's summed share fails the plain check, server 2's is the first
    # accepted, and the model owner reconstructs from servers (2, 3)
    clean = _clean_session()
    attacked = _clean_session(malicious_servers=[{"id": 1, "behavior": "corrupt_shares"}])
    assert attacked.agg_failures == [1]
    assert attacked.report()["aggregate_share_failures"] == [1]
    assert len(attacked.decrypted) == len(clean.decrypted)
    for a, b in zip(attacked.decrypted, clean.decrypted):
        assert np.array_equal(a, b)


@st.composite
def _adversary_mixes(draw):
    """A seed, K/T, a behavior (or none) per owner, and up to `budget`
    misbehaving servers."""
    K, T = draw(st.sampled_from([(5, 1), (7, 2)]))
    owners = []
    for n in range(SMALL_SESSION["N"]):
        behavior = draw(st.none() | st.sampled_from(DO_BEHAVIORS))  # honest half the time
        if behavior == "bad_share":
            owners.append({"id": n, "behavior": behavior,
                           "target_server": draw(st.integers(1, K))})
        elif behavior is not None:
            owners.append({"id": n, "behavior": behavior})
    budget = (K - T - 1) // 2
    ids = draw(st.permutations(range(1, K + 1)))[:draw(st.integers(0, budget))]
    servers = [{"id": i, "behavior": draw(st.sampled_from(SERVER_BEHAVIORS))} for i in ids]
    return draw(st.integers(0, 39)), K, T, tuple(owners), tuple(servers)


@settings(max_examples=25)
@given(_adversary_mixes())
# servers 1..T+1 hold the shares a reconstruction reads first
@example((3, 7, 2, ({"id": 0, "behavior": "norm_attack"},),
          ({"id": 1, "behavior": "corrupt_shares"}, {"id": 2, "behavior": "corrupt_shares"})))
def test_random_adversary_mixes_exclude_only_adversaries(mix):
    seed, K, T, owners, servers = mix
    mixed = run_session(small_session_config(K=K, T=T, malicious_dos=owners,
                                             malicious_servers=servers), seed)
    owners_only = run_session(small_session_config(K=K, T=T, malicious_dos=owners), seed)
    clean = run_session(small_session_config(K=K, T=T), seed)
    bad = {spec["id"] for spec in owners}
    for n in bad:
        assert n not in mixed["validity_set"] and str(n) not in mixed["payments"]
    for n in set(range(SMALL_SESSION["N"])) - bad:
        assert (n in mixed["validity_set"]) == (n in clean["validity_set"])
    for key in ("decrypted_gradient", "validity_set", "payments"):
        assert mixed[key] == owners_only[key], key


def test_every_proof_is_packaged_before_the_challenge(monkeypatch):
    # a prover that knew r could fit its proof to it, so every owner's
    # packages must reach the servers before the contract draws r
    calls = []
    package_proof, sample_challenge = snip.package_proof, TradeContract.sample_challenge

    def package(*args, **kwargs):
        calls.append("package_proof")
        return package_proof(*args, **kwargs)

    def challenge(self):
        calls.append("sample_challenge")
        return sample_challenge(self)

    monkeypatch.setattr(snip, "package_proof", package)
    monkeypatch.setattr(TradeContract, "sample_challenge", challenge)
    cfg = small_session_config(malicious_dos=({"id": 1, "behavior": "bad_share"},
                                              {"id": 3, "behavior": "tampered_proof"}))
    report = run_session(cfg, 3)
    # owner 1 is excluded by complaint, so three owners prove
    assert calls == ["package_proof"] * 3 + ["sample_challenge"]
    assert report["validity_set"] == [0, 2]


def test_each_proof_is_bound_to_the_shares_the_servers_verified(monkeypatch):
    # an owner over the bound proves a fresh sharing of an all-zero slice,
    # which passes the norm circuit; the servers must check the proof
    # against the shares they verified, not the package's own copy
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    doc = dict(json.loads(path.read_text()), malicious_dos=[{"id": 0, "behavior": "norm_attack"}])
    sessions = []
    prove = sim._Session._prove

    def prove_zero_slice(self, n, circ):
        if n != 0:
            return prove(self, n, circ)
        sessions.append(self)
        zeros = [0] * len(self.sub_idx)
        rng = sim.rng_stream(self.seed, "test.zero_slice")
        shares, _ = ss_share(zeros, self.config.T, self.config.K, rng)
        return snip.prove(zeros, circ, self.config.T, self.config.K, rng, input_shares=shares)

    monkeypatch.setattr(sim._Session, "_prove", prove_zero_slice)
    report = run_session(SessionConfig.from_dict(doc), 3)
    assert sessions[0].contract.verdicts[0] == "identity_nonzero"
    assert report["validity_set"] == [1, 2, 3]
    assert "0" not in report["payments"]


def test_validate_cuts_each_delivered_share_once(monkeypatch):
    # the validated slice of each of an owner's K delivered shares is cut
    # once, for its packages and the servers' checks alike, and its own
    # vector once for the proof: K + 1 takes per owner under validation
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    config = SessionConfig.from_dict(json.loads(path.read_text()))
    takes = []
    take, validate = FieldVector.take, sim._Session.validate

    def counting_take(self, indices):
        takes.append(len(indices))
        return take(self, indices)

    def counted_validate(self):
        monkeypatch.setattr(FieldVector, "take", counting_take)
        try:
            validate(self)
        finally:
            monkeypatch.setattr(FieldVector, "take", take)

    monkeypatch.setattr(sim._Session, "validate", counted_validate)
    report = run_session(config, 3)
    assert report["validity_set"] == [0, 1, 2, 3]
    assert len(takes) == config.N * (config.K + 1) == 24


def test_the_norm_bound_is_fixed_at_start(monkeypatch):
    # rho is posted before any owner registers, and the servers validate
    # against the posted rho, not the model owner's local copy
    cfg = small_session_config(malicious_dos=({"id": 0, "behavior": "random_gradient"},))
    sessions = []
    publish = sim._Session.publish

    def publish_then_overwrite(self):
        publish(self)
        sessions.append(self)
        self.rho = 1  # every honest owner's norm is above 1

    posted = run_session(cfg, 3)
    methods = [tx["method"] for tx in posted["transactions"]]
    assert methods.count("start") == 1 and "register" not in methods[:methods.index("start")]
    monkeypatch.setattr(sim._Session, "publish", publish_then_overwrite)
    overwritten = run_session(cfg, 3)
    assert sessions[0].contract.rho == posted["rho"] > 1
    assert overwritten["validity_set"] == posted["validity_set"] == [1, 2, 3]
    assert overwritten["events"] == posted["events"]


def test_budget_flag_on_violating_config():
    cfg = small_session_config(
        malicious_servers=(
            {"id": 2, "behavior": "corrupt_shares"},
            {"id": 4, "behavior": "corrupt_shares"},
        )
    )
    assert cfg.budget_exceeded
    report = run_session(cfg, 5)
    assert report["adversary_budget_exceeded"]


def test_explicit_rho_skips_calibration():
    cfg = small_session_config(rho=200)
    report = run_session(cfg, 3)
    assert report["rho"] == 200
    assert report["validity_set"] == [0, 1, 2, 3]


def test_fixed_rho_above_the_cap_is_not_clamped():
    # rho_cap bounds only a calibrated rho; a fixed bound is taken as given
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    doc = dict(json.loads(path.read_text()), rho=2000)
    report = run_session(SessionConfig.from_dict(doc), 3)
    assert (report["rho"], report["rho_clamped"]) == (2000, False)
    assert report["validity_set"] == [0, 1, 2, 3]


def test_the_cap_bounds_a_calibrated_rho():
    # coarse additive masks on unscaled data: the probe calibrates far past the cap
    cfg = SessionConfig(samples_per_do=8, mo_samples=16, data_scale=1.0, mask_additive_sigma=1.0)
    key = setup_key(perturb.flat_length(cfg.layers), sim.rng_stream(0, "contract.setup"))
    session = sim._run_session(cfg, 0, build_world(cfg, 0), key)
    assert sim.calibrated_rho(session._sub_norm(probe_vector(session))) == 3_744_880
    report = session.report()
    assert (report["rho"], report["rho_clamped"]) == (1024, True)


def test_validation_disabled_keeps_all_owners():
    cfg = small_session_config(validation=False,
                               malicious_dos=({"id": 0, "behavior": "random_gradient"},))
    report = run_session(cfg, 3)
    assert report["validity_set"] == [0, 1, 2, 3]
    assert report["rho"] is None


def test_the_report_states_the_bound_the_contract_posted():
    # without validation `start` stores the root and the parameters but no
    # rho word, so a configured rho is not a posted one
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    doc = dict(json.loads(path.read_text()), rho=100)
    for validation, posted, words in ((True, 100, 3), (False, None, 2)):
        report = run_session(SessionConfig.from_dict(dict(doc, validation=validation)), 3)
        (start,) = [tx for tx in report["transactions"] if tx["method"] == "start"]
        assert (report["rho"], start["stored_words_delta"]) == (posted, words)
        assert report["config"]["rho"] == 100


def test_all_owners_malicious_refunds_deposit():
    cfg = small_session_config(
        malicious_dos=tuple({"id": i, "behavior": "random_gradient"} for i in range(4))
    )
    report = run_session(cfg, 3)
    assert report["validity_set"] == []
    assert report["payments"] == {"mo": 1000}
    assert report["decrypted_gradient"] is None


def test_on_chain_words_independent_of_gradient_length():
    # same (N, K, T), different model sizes: m = 192 vs m = 768
    small = run_session(small_session_config(layers=(4, 8, 2)), 2)
    big = run_session(small_session_config(layers=(22, 8, 2), data_scale=0.2), 2)
    assert small["on_chain_words"] == big["on_chain_words"]


@pytest.mark.parametrize("name", ["clean", "gas2400", "train", "train_attacked"])
def test_tx_log_deltas_sum_to_on_chain_words(name):
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    config = SessionConfig.from_dict(json.loads(path.read_text()))
    report = run_session(config, 3)
    words = report["on_chain_words"]
    assert sum(tx["stored_words_delta"] for tx in report["transactions"]) == words
    assert words == expected_word_count(config.N, config.T, paid=len(report["payments"]))


def test_upheld_complaint_storage_matches_closed_form():
    # the excluded owner's verdict record is stored by its upheld complaint
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    doc = dict(json.loads(path.read_text()), N=5, K=7,
               malicious_dos=[{"id": 0, "behavior": "bad_share"}])
    report = run_session(SessionConfig.from_dict(doc), 3)
    assert report["validity_set"] == [1, 2, 3, 4]
    assert report["on_chain_words"] == 28 == expected_word_count(5, 1, paid=4)
    assert sum(tx["stored_words_delta"] for tx in report["transactions"]) == 28
    resolved = [tx for tx in report["transactions"] if tx["method"] == "resolve_complaint"]
    assert [tx["stored_words_delta"] for tx in resolved] == [1]


def test_session_liveness_reaches_finished():
    for seed in range(3):
        report = run_session(small_session_config(), seed)
        assert report["phase"] == "Finished"


def test_world_generation_decoupled_from_adversaries():
    cfg = small_session_config()
    w1 = build_world(cfg, 5)
    w2 = build_world(small_session_config(malicious_dos=({"id": 0, "behavior": "random_gradient"},)), 5)
    for a, b in zip(w1.model.weights, w2.model.weights):
        assert np.array_equal(a, b)
    for (Xa, Ya), (Xb, Yb) in zip(w1.shards, w2.shards):
        assert np.array_equal(Xa, Xb) and np.array_equal(Ya, Yb)


def test_training_mse_improves_early():
    cfg = training_config(iterations=12)
    report = run_training(cfg, 1)
    curve = [v for _, v in report["loss_curve"]]
    assert len(curve) == 13
    assert all(curve[i + 1] < curve[i] for i in range(10))


def test_training_determinism():
    cfg = training_config(iterations=3)
    a = run_training(cfg, 4)
    b = run_training(cfg, 4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_training_report_does_not_depend_on_the_circuit_cache():
    # a calibrated rho moves between iterations, so the two-entry norm-circuit
    # cache both hits and evicts; a cold cache and one that a session at
    # another bound of the same length left warm give the same report
    path = Path(__file__).resolve().parent.parent / "configs" / "train.json"
    cfg = SessionConfig.from_dict(dict(json.loads(path.read_text()), iterations=8))
    circuit._norm_circuit.cache_clear()
    cold = run_training(cfg, 3)
    info = circuit._norm_circuit.cache_info()
    assert info.misses > info.maxsize and info.hits >= 1
    # only a session at rho = 1 and the same length warms the cache: it
    # rejects every honest owner, so a circuit leaking from it into the
    # training run would change the run's validity sets
    circuit._norm_circuit.cache_clear()
    assert run_session(dataclasses.replace(cfg, rho=1), 3)["validity_set"] == []
    warm = run_training(cfg, 3)
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)


def test_training_csv_format():
    from gradmarket.sim import loss_curve_csv

    cfg = training_config(iterations=2)
    report = run_training(cfg, 4)
    csv = loss_curve_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "iteration,mse"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


ALL_ADVERSARIES = dict(
    N=6,
    K=7,
    T=1,
    malicious_dos=(
        {"id": 0, "behavior": "random_gradient"},
        {"id": 1, "behavior": "norm_attack"},
        {"id": 2, "behavior": "bad_share", "target_server": 3},
        {"id": 3, "behavior": "tampered_proof"},
    ),
    malicious_servers=(
        {"id": 2, "behavior": "corrupt_shares"},
        {"id": 5, "behavior": "false_complaint"},
    ),
)


def _report_digest(report: dict) -> str:
    # the decrypted gradient and its error are BLAS float sums, whose last
    # bit may differ between machines; everything else is exact
    doc = {k: v for k, v in report.items()
           if k not in ("decrypted_gradient", "gradient_max_abs_error")}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_clean_config_report_golden_digest():
    path = Path(__file__).resolve().parent.parent / "configs" / "clean.json"
    report = run_session(SessionConfig.from_dict(json.loads(path.read_text())), 3)
    assert _report_digest(report) == (
        "8724dd6bef8aed074960156719948e42a7d43871dcef6db0c8957bcf34d7aef9"
    )


def test_all_adversaries_report_golden_digest():
    report = run_session(small_session_config(**ALL_ADVERSARIES), 3)
    assert report["validity_set"] == [4, 5]
    assert report["aggregate_share_failures"] == [2]
    assert _report_digest(report) == (
        "45d1558536f49bf3b88aad301914db39a9d43306a29feb71bde84e110248aad5"
    )


def test_unvalidated_session_report_golden_digest():
    report = run_session(small_session_config(validation=False), 3)
    assert report["validity_set"] == [0, 1, 2, 3]
    assert _report_digest(report) == (
        "2e278ba4b0cd7aa9402b12e7a5b127ddcfc6cffa9cd1afd8d7c3144c966fcc6e"
    )


def test_empty_validity_set_report_golden_digest():
    # every owner is rejected: pay refunds the MO and nothing is aggregated
    owners = tuple({"id": n, "behavior": "random_gradient"} for n in range(4))
    report = run_session(small_session_config(malicious_dos=owners), 3)
    assert report["validity_set"] == []
    assert report["payments"] == {"mo": 1000}
    assert _report_digest(report) == (
        "b683eba1afe20a583349d4b9315311395b0e79e0b36b4ff63bf444e3480f3e8b"
    )


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def test_attacked_training_report_and_curve_golden_digest():
    # the losses and gradient errors are BLAS float sums, whose last bit may
    # differ between machines, so floats are pinned to 10 significant digits
    path = Path(__file__).resolve().parent.parent / "configs" / "train_attacked.json"
    doc = dict(json.loads(path.read_text()), iterations=3)
    report = _rounded(run_training(SessionConfig.from_dict(doc), 3))
    assert [s["validity_set"] for s in report["sessions"]] == [[1, 2, 3]] * 3
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "61b8e0b8271cf90572cf69a23707179dee6c037ea305fc073bfc42c569f04da5"
    )
    assert hashlib.sha256(loss_curve_csv(report).encode()).hexdigest() == (
        "f85da55f86bdee7af0e47133a9d66a2b62aaac90f4aca841531daa5032b648ac"
    )
