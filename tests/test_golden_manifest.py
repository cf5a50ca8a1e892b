"""Every CLI artifact at seed 3 matches the golden manifest.

A change that moves a report, txlog, training curve, gas comparison or the
selftest's output fails here, and the failing entry names the artifact. A
change that moves them by design re-records the manifest with
`python3 tests/golden_manifest.py` and says which entries moved. Each `run`
entry is also held to the two replay invariants: the txlog's stored-word
deltas sum to the report's `on_chain_words`, and the payments sum to the
deposit.
"""

import json

import pytest

from golden_manifest import CI_ONLY, ENTRIES, artifacts, digest, load


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e not in CI_ONLY])
def test_artifacts_match_the_golden_manifest(entry, tmp_path):
    texts = artifacts(entry, tmp_path)
    if entry.startswith("run "):
        report = json.loads(texts["report"])
        deltas = [json.loads(line)["stored_words_delta"] for line in texts["txlog"].splitlines()]
        assert sum(deltas) == report["on_chain_words"]
        assert sum(report["payments"].values()) == report["config"]["deposit"]
    assert {kind: digest(text) for kind, text in texts.items()} == load()[entry]


def test_the_manifest_records_every_entry():
    assert sorted(load()) == sorted(ENTRIES)


def test_the_digest_rounds_floats_and_keeps_every_other_byte():
    assert digest('{"e": 0.30000000000000004}') == digest('{"e": 0.3}')
    assert digest("1e-05,2.00000000001e-05") == digest("1e-05,2e-05")
    assert digest('{"gas": 21000}') != digest('{"gas": 21001}')
    assert digest('{"gas": 21000}') != digest('{"gas":21000}')
    # digits inside a word, such as a hex digest, are not numbers
    assert digest('"a1.00000000001"') != digest('"a1.0"')
    assert digest("0.1234567891") != digest("0.1234567892")
