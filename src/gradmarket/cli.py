"""Command-line entry point: run sessions, train, compare gas, self-test.

Exit codes: 0 success, 1 protocol failure, 2 configuration error. All
randomness flows from --seed through named streams, so repeated invocations
with the same config and seed write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

from . import field, perturb, sim
from .circuit import build_norm_circuit, eval_plain
from .commit import (
    GENERATOR_LABEL,
    GROUP_COFACTOR,
    P,
    commit,
    setup_key,
    verify_share,
)
from .contract import GasTable, baseline_gas_estimate
from .shamir import robust_recon, ss_share
from .sim import ConfigError, ProtocolError, SessionConfig


def _load_config(path: str) -> SessionConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config as UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
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
    ops = build_norm_circuit(len(sim.validation_indices(config)), rho,
                             accept_zero=True).field_ops
    baseline = baseline_gas_estimate(m, config.N, ops, GasTable.from_dict(config.gas_table))
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
    # inverses of random elements against Fermat's a^(q-2)
    ok = True
    for _ in range(600):
        if a := field.rand_element(rng):
            a_inv = field.inv(a)
            ok &= a_inv == pow(a, field.Q - 2, field.Q) and a * a_inv % field.Q == 1
    check("field axioms", ok)

    # proof-trace extension (FFT convolution) on worst-case digits: every
    # reduced w_i * y_i is q - 1
    dom = field.EvalDomain(496)
    values = [(field.Q - 1) * field.inv(w) % field.Q for w in dom.weights]
    try:
        ext = dom.extend(values)
        ok = all(ext[k - 1] == dom.interpolate_at(values, 496 + k) for k in (1, 2, 248, 494, 495))
    except ArithmeticError:
        ok = False
    check("extension exactness", ok)

    # sharing round trip from every pair of shares (six of the ten pairs
    # have fractional Lagrange weights at 0, 126-bit signed residues) and
    # robust reconstruction under one error
    secret = [field.rand_element(rng) for _ in range(6)]
    shares, _ = ss_share(secret, 1, 5, rng)
    from .shamir import ShareVector, ss_recon
    ok = all(ss_recon(list(pair), 1) == secret for pair in itertools.combinations(shares, 2))
    bad = list(shares)
    tampered = list(bad[2].values)
    tampered[0] = (tampered[0] + 1) % field.Q
    bad[2] = ShareVector(index=3, values=tuple(tampered))
    xs = [s.index for s in bad]
    ok &= [robust_recon(xs, list(ys), 1) for ys in zip(*(s.values for s in bad))] == secret
    check("sharing and robust reconstruction", ok)

    # packed share vectors against ints, at the limb, sign and modulus
    # boundaries: Horner shares, their sum and their wire bytes (own draws)
    from .field import FieldVector
    from .shamir import share_with_masks
    prng = _random.Random(29)
    edges = [0, 1, (1 << 64) - 1, 1 << 64, field.HALF_Q, field.HALF_Q + 1, field.Q - 1]
    columns = [(a, b, c) for a in edges for b in edges for c in edges]
    columns += [tuple(field.rand_element(prng) for _ in range(3)) for _ in range(16)]
    coeffs = list(zip(*columns))
    packed = share_with_masks(coeffs[0], coeffs[1:], 5)
    ok = all(list(s.values) == [field.poly_eval(c, s.index) for c in columns] for s in packed)
    columns = zip(*(s.values for s in packed))
    ok &= FieldVector.sum(s.values for s in packed).tolist() == [sum(c) % field.Q for c in columns]
    rows = [FieldVector(prng.sample(edges, 7)) for _ in range(5)]
    ok &= FieldVector.sum(rows).tolist() == [sum(c) % field.Q for c in zip(*rows)]
    ok &= packed[0].to_bytes()[8:] == b"".join(map(field.to_bytes, packed[0].values))
    check("packed field vectors", ok)

    # a transparent commitment key: no rng input, generator 0 from the label
    key = setup_key(6, rng)
    g0 = int.from_bytes(hashlib.sha256(GENERATOR_LABEL + bytes(8)).digest(), "big")
    check("transparent commitment key", key == setup_key(6, _random.Random(1))
          and key.basis[0] == pow(g0, GROUP_COFACTOR, P))

    # commitment completeness
    shares2, masks2 = ss_share(secret, 1, 5, rng)
    cm2 = commit(secret, masks2, key)
    ok = all(verify_share(s, cm2, key) for s in shares2)
    check("commitment completeness", ok)

    # Montgomery kernel lanes against CIOS's (x*y + u*p)/R, u = -x*y/p mod R
    from .commit import _R, _from_limbs, _mont_mul, _to_limbs
    krng = _random.Random(27)
    edges = [0, 1, P - 1, P, P + 1, 2 * P - 1, (1 << 28) - 1, 1 << 112, _R % P]
    xs = [x for x in edges for _ in edges] + [krng.randrange(2 * P) for _ in range(64)]
    ys = edges * len(edges) + [krng.randrange(2 * P) for _ in range(64)]
    lanes = _to_limbs(xs)
    _mont_mul(lanes, _to_limbs(ys), lanes)
    cios = [(x * y + (-x * y * pow(P, -1, _R) % _R) * P) // _R for x, y in zip(xs, ys)]
    check("montgomery kernel", _from_limbs(lanes) == cios)

    # the product tree of a short and a long key on the largest residues,
    # whose byte digits are nearly all 255, against one pow per term
    ok = True
    for m in (48, 512):
        key_m = setup_key(m, rng)
        worst = [field.Q - 1 if k % 2 else field.HALF_Q for k in range(m)]
        expected = math.prod(pow(b, e, P) for b, e in zip(key_m.basis, worst)) % P
        ok &= commit(worst, [], key_m).elements == (expected,)
    check("long-key multi-exp", ok)

    # an honest proof over the servers' shares: an in-bound input is
    # accepted, and an out-of-bound one reconstructs its nonzero plain output
    from . import snip
    circ = build_norm_circuit(3, 10, accept_zero=True)

    def prove_and_test(inputs):
        out, _ = eval_plain(circ, inputs)
        shares, _ = ss_share(inputs, 1, 5, rng)
        pkgs = snip.prove(inputs, circ, 1, 5, rng, input_shares=shares)
        verdicts = snip.identity_test(shares, pkgs, circ, field.rand_element(rng), 1)
        xs = [s.index for s in shares]
        ident = robust_recon(xs, [v.identity_share for v in verdicts], 1)
        outv = robust_recon(xs, [v.output_share for v in verdicts], 1)
        return out, ident, outv

    out, ident, outv = prove_and_test([1, 2, 1])  # norm^2 = 6 <= 10
    check("validity proof completeness", out == 0 and ident == 0 and outv == 0)
    out, ident, outv = prove_and_test([2, 2, 2])  # norm^2 = 12 > 10
    check("validity proof rejects an out-of-bound input", ident == 0 and outv == out != 0)

    # decryption identity on the real path
    import numpy as np
    nrng = np.random.default_rng(7)
    model = perturb.random_model((3, 5, 2), nrng)
    masks = perturb.sample_masks(model.layer_sizes, nrng)
    enc = perturb.apply_masks(model, masks)
    X = nrng.normal(0, 1, (6, 3))
    Y = nrng.normal(0, 1, (6, 2))
    eg = perturb.encrypted_gradient(enc, masks.r_out, X, Y)
    dec = perturb.decrypt_aggregate(eg, masks)
    plain = perturb.plain_gradient(model, X, Y)
    err = max(float(np.max(np.abs(d - p))) for d, p in zip(dec, plain))
    check("gradient decryption identity", err < 1e-8)

    # session determinism
    cfg = SessionConfig(layers=(2, 3, 1), N=2, K=4, T=1, samples_per_do=4,
                        mo_samples=4, data_scale=0.4)
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
