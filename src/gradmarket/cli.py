"""Command-line entry point: run sessions, train, compare gas, self-test.

Exit codes: 0 success, 1 protocol failure, 2 configuration error. All
randomness flows from --seed through named streams, so repeated invocations
with the same config and seed write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import field, perturb, sim
from .circuit import build_norm_circuit, eval_plain
from .commit import commit, setup_key, verify_share
from .contract import GasTable, baseline_gas_estimate
from .shamir import ss_robust_recon, ss_share
from .sim import ConfigError, ProtocolError, SessionConfig


def _load_config(path: str) -> SessionConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return SessionConfig.from_dict(doc)


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    report = sim.run_session(config, args.seed)
    out = Path(args.out)
    txlog = "\n".join(json.dumps(r, sort_keys=True) for r in report["transactions"])
    _write_json(out, report)
    out.with_suffix(out.suffix + ".txlog.jsonl").write_text(txlog + "\n")
    print(f"session finished: validity set {report['validity_set']}, "
          f"gas total {report['gas']['total']}, report at {out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        raise ConfigError(f"--out {out} would be overwritten by the loss curve; "
                          "use a suffix other than .csv")
    report = sim.run_training(config, args.seed)
    _write_json(out, report)
    csv_path.write_text(sim.loss_curve_csv(report))
    print(f"training finished: final mse {report['final_mse']:.6f}, "
          f"report at {out}, curve at {csv_path}")
    return 0


def _cmd_gas_compare(args) -> int:
    config = _load_config(args.config)
    m = perturb.flat_length(config.layers)
    report = None if args.baseline else sim.run_session(config, args.seed)
    # a session without validation reports no rho; price the baseline at 64
    rho = (report and report["rho"]) or config.rho or 64
    gates = len(build_norm_circuit(len(sim.validation_indices(config)), rho,
                                   accept_zero=True).gates)
    baseline = baseline_gas_estimate(m, config.N, gates, GasTable.from_dict(config.gas_table))
    result = {"m": m, "N": config.N, "K": config.K, "T": config.T, "baseline": baseline}
    if report is not None:
        result["offchain"] = report["gas"]
        result["on_chain_words"] = report["on_chain_words"]
        result["ratio"] = report["gas"]["total"] / baseline["total"]
    _write_json(Path(args.out), result)
    if report is not None:
        print(f"off-chain {report['gas']['total']} vs baseline {baseline['total']} "
              f"(ratio {result['ratio']:.4f}), written to {args.out}")
    else:
        print(f"baseline total {baseline['total']}, written to {args.out}")
    return 0


def _selftest() -> int:
    """Quick invariant suite over the core primitives."""
    import random as _random

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rng = _random.Random(20240901)
    # field axioms on random triples
    ok = True
    for _ in range(200):
        a, b, c = (field.rand_element(rng) for _ in range(3))
        ok &= field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        ok &= field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        if a:
            ok &= field.mul(a, field.inv(a)) == 1
    check("field axioms", ok)

    # proof-trace extension (FFT convolution) on worst-case digits: every
    # reduced w_i * y_i is q - 1
    dom = field.EvalDomain(496)
    values = [(field.Q - 1) * field.inv(w) % field.Q for w in dom.weights]
    try:
        ext = dom.extend(values, 495)
        ok = all(ext[k - 1] == dom.interpolate_at(values, 496 + k) for k in (1, 2, 248, 494, 495))
    except ArithmeticError:
        ok = False
    check("extension exactness", ok)

    # sharing round trip and robust reconstruction under one error
    secret = [field.rand_element(rng) for _ in range(6)]
    shares, _ = ss_share(secret, 1, 5, rng)
    from .shamir import ShareVector, ss_recon
    ok = ss_recon(shares[:2], 1) == secret
    bad = list(shares)
    tampered = list(bad[2].values)
    tampered[0] = (tampered[0] + 1) % field.Q
    bad[2] = ShareVector(index=3, values=tuple(tampered))
    ok &= ss_robust_recon(bad, 1) == secret
    check("sharing and robust reconstruction", ok)

    # commitment completeness
    key = setup_key(6, rng)
    cm = commit(secret, [[field.rand_element(rng) for _ in range(6)]], key)
    shares2, masks2 = ss_share(secret, 1, 5, rng)
    cm2 = commit(secret, masks2, key)
    ok = all(verify_share(s, cm2, key) for s in shares2)
    check("commitment completeness", ok)

    # honest proof accepted end to end
    from . import snip
    from .shamir import robust_recon_scalar
    circ = build_norm_circuit(3, 10, accept_zero=True)
    inputs = [1, 2, 1]  # norm^2 = 6 <= 10
    out, _ = eval_plain(circ, inputs)
    pkgs = snip.prove(inputs, circ, 1, 5, rng)
    r = field.rand_element(rng)
    verdicts = snip.identity_test(pkgs, circ, r, 1)
    ident = robust_recon_scalar([v.identity_share for v in verdicts], 1)
    outv = robust_recon_scalar([v.output_share for v in verdicts], 1)
    check("validity proof completeness", out == 0 and ident == 0 and outv == 0)

    # decryption identity on the real path
    import numpy as np
    nrng = np.random.default_rng(7)
    model = perturb.random_model((3, 5, 2), nrng)
    enc, r_out, masks = perturb.encrypt_model(model, nrng)
    X = nrng.normal(0, 1, (6, 3))
    Y = nrng.normal(0, 1, (6, 2))
    eg = perturb.encrypted_gradient(enc, r_out, X, Y)
    dec = perturb.decrypt_aggregate(eg, masks)
    plain = perturb.plain_gradient(model, X, Y)
    err = max(float(np.max(np.abs(d - p))) for d, p in zip(dec, plain))
    check("gradient decryption identity", err < 1e-8)

    # session determinism
    cfg = SessionConfig(layers=(2, 3, 1), N=2, K=4, T=1, samples_per_do=4,
                        mo_samples=4, data_scale=0.4, mask_additive_sigma=0.3,
                        rho_margin=6.0)
    r1 = sim.run_session(cfg, 11)
    r2 = sim.run_session(cfg, 11)
    check("session determinism", json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True))

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all self-test checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradmarket",
        description="Deterministic gradient data-market simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trading session")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="report.json")

    p_train = sub.add_parser("train", help="run an iterated training session")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default="training.json")

    p_gas = sub.add_parser(
        "gas-compare",
        help="compare off-chain vs fully on-chain gas",
        description="Compare one session's gas with the fully on-chain baseline. "
        "The baseline's norm circuit is the accept-zero one at the session's rho, "
        "else the config's rho, else rho 64: a session run with validation off and "
        "no rho in the config gets its baseline priced at rho 64.",
    )
    p_gas.add_argument("--config", required=True)
    p_gas.add_argument("--seed", type=int, default=0)
    p_gas.add_argument("--out", default="gas.json")
    p_gas.add_argument("--baseline", action="store_true",
                       help="estimate only the fully on-chain baseline")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "gas-compare":
            return _cmd_gas_compare(args)
        if args.command == "selftest":
            return _selftest()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
