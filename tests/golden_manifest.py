"""The golden manifest: SHA-256 digests of the CLI's artifacts at seed 3.

One entry per command: `run` (report and txlog) on every shipped config and
every config in `derived_configs`, `train` (JSON and CSV) on each training
config, `gas-compare` on `clean.json` and `gas2400.json`, and `selftest`
(stdout). Floats count at 10 significant digits, since the losses, the
decrypted gradient and its error are BLAS float sums whose last bits may
differ between machines; every other byte counts as written.

    python3 tests/golden_manifest.py                 # record the manifest
    python3 tests/golden_manifest.py --check ENTRY   # check entries against it

Both need `gradmarket` importable (installed, or `PYTHONPATH=src`).
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import derived_configs
from derived_configs import CONFIGS, DERIVED
from gradmarket.cli import main

SEED = 3
MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

ENTRIES = (
    [f"run {name}" for name in ("clean", "gas2400", "train", "train_attacked", *DERIVED)]
    + ["train train", "train train_attacked", "gas-compare clean", "gas-compare gas2400",
       "selftest"]
)
# the slowest entry (m = 22,560) is left out of tier-1; CI checks it with --check
CI_ONLY = ("run gas22560",)

# a JSON, CSV or text number with a fraction or an exponent, not part of a word
_FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")


def digest(text: str) -> str:
    """SHA-256 of text with each float rounded to 10 significant digits."""
    rounded = _FLOAT.sub(lambda m: repr(float(f"{float(m.group()):.10g}")), text)
    return hashlib.sha256(rounded.encode()).hexdigest()


def _cli(*argv: str) -> str:
    """Run the CLI in-process; its stdout, or AssertionError on a nonzero exit."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    assert code == 0, f"gradmarket {' '.join(argv)} exited {code}"
    return stdout.getvalue()


def artifacts(entry: str, workdir: Path) -> dict[str, str]:
    """Run one entry's command in workdir; the text of each artifact."""
    command, _, name = entry.partition(" ")
    if command == "selftest":
        return {"stdout": _cli("selftest")}
    config = CONFIGS / f"{name}.json"
    if name in DERIVED:
        derived_configs.write(workdir)
        config = workdir / f"{name}.json"
    out = workdir / f"{command}.{name}.json"
    _cli(command, "--config", str(config), "--seed", str(SEED), "--out", str(out))
    files = {"report": out}
    if command == "run":
        files["txlog"] = out.with_suffix(".json.txlog.jsonl")
    elif command == "train":
        files["csv"] = out.with_suffix(".csv")
    return {kind: path.read_text() for kind, path in files.items()}


def outputs(entry: str, workdir: Path) -> dict[str, str]:
    """Run one entry's command in workdir; the digest of each artifact."""
    return {kind: digest(text) for kind, text in artifacts(entry, workdir).items()}


def load() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text())


def _main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if not argv:
            manifest = {entry: outputs(entry, Path(tmp)) for entry in ENTRIES}
            MANIFEST.parent.mkdir(exist_ok=True)
            MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(manifest)} entries in {MANIFEST}")
            return 0
        if argv[0] != "--check" or len(argv) < 2:
            print("usage: golden_manifest.py [--check ENTRY...]", file=sys.stderr)
            return 2
        manifest, failed = load(), 0
        for entry in argv[1:]:
            ok = outputs(entry, Path(tmp)) == manifest[entry]
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {entry}")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
