"""The eleven configs derived from the shipped ones, which the replay checks and
the golden manifest run next to `configs/*.json`.

Run as a script to write each as `<name>.json` into a directory:

    python3 tests/derived_configs.py OUTDIR
"""

import json
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _load(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


DERIVED = {
    # three cheating owners and a server that corrupts its shares
    "adversarial": dict(
        _load("clean"),
        malicious_dos=[
            {"id": 0, "behavior": "random_gradient"},
            {"id": 1, "behavior": "bad_share", "target_server": 4},
            {"id": 2, "behavior": "tampered_proof"},
        ],
        malicious_servers=[{"id": 2, "behavior": "corrupt_shares"}],
    ),
    # gas2400 with every layer validated: 600 coordinates at M = 615,
    # the only replay whose proof extends a trace longer than 496
    "gas2400all": dict(_load("gas2400"), validate_layers=None),
    # gas2400 at m = 9,120, a share length no workload runs
    "gas9120": dict(_load("gas2400"), layers=[112, 20, 2]),
    # gas2400 at m = 22,560, where the owners' one-byte secrets run
    # three product-tree levels per fold (one or two at m = 9,120,
    # none at m = 2,400)
    "gas22560": dict(_load("gas2400"), layers=[280, 20, 2]),
    # two corrupt servers at K = 5, T = 1, past the decoding budget of
    # one: no d/e opening decodes, every owner ends decode_failed and
    # the deposit is refunded
    "overbudget": dict(_load("clean"), malicious_servers=[
        {"id": 2, "behavior": "corrupt_shares"},
        {"id": 4, "behavior": "corrupt_shares"},
    ]),
    # the two behaviors the adversarial config leaves out: owner 0
    # inflates its gradient past rho and is rejected, server 3 accuses
    # every owner and each complaint is dismissed; owners 1..3 are paid
    "complaints": dict(
        _load("clean"),
        malicious_dos=[{"id": 0, "behavior": "norm_attack"}],
        malicious_servers=[{"id": 3, "behavior": "false_complaint"}],
    ),
    # the model owner's first checked aggregate share is server 1's, which
    # fails; its first accepted share is server 2's, and it reconstructs
    # from servers (2, 3)
    "corrupt1": dict(_load("clean"), malicious_servers=[
        {"id": 1, "behavior": "corrupt_shares"},
    ]),
    # the model owner accepts servers 1 and 2 as its T + 1 anchors before
    # it checks server 5's share, which fails
    "corrupt5": dict(_load("clean"), malicious_servers=[
        {"id": 5, "behavior": "corrupt_shares"},
    ]),
    # owners 0 and 1 both send server 3 a bad share, so server 3's
    # shares hold two failing ones: both complaints are upheld, both
    # owners are excluded, and owners 2 and 3 are paid
    "twobad": dict(_load("clean"), malicious_dos=[
        {"id": 0, "behavior": "bad_share", "target_server": 3},
        {"id": 1, "behavior": "bad_share", "target_server": 3},
    ]),
    # clean.json at K = 7, T = 2, the one replay with T >= 2: its
    # aggregate shares are checked against three anchors at once
    "k7t2": dict(_load("clean"), K=7, T=2),
    # clean.json at N = 16 with owner 5 sending server 2 a bad share: the
    # one replay whose failing share batch splits four levels deep; owner 5
    # is excluded and the other 15 owners are paid
    "n16bad": dict(_load("clean"), N=16, malicious_dos=[
        {"id": 5, "behavior": "bad_share", "target_server": 2},
    ]),
}


def write(outdir) -> None:
    """Write each derived config into outdir as `<name>.json`."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, cfg in DERIVED.items():
        (out / f"{name}.json").write_text(json.dumps(cfg, indent=2))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: derived_configs.py OUTDIR")
    write(sys.argv[1])
