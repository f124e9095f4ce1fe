"""The correctness gate must be able to fail.

Run with ``python -m pytest perfbench/test_gate.py``; it is outside the
repository's default test paths.
"""

import dataclasses
import json
from types import SimpleNamespace

import shadowspec

from perfbench import gate
from perfbench.run import one_pass
from perfbench.workloads import SHIFT_RANDOM, SMALL_CHECKS, Workload

# Two records of the c1 shape, so each test runs in well under a second.
_C1 = SHIFT_RANDOM.configs[0]
_TINY = Workload("tiny", "gate self-test", (
    dataclasses.replace(_C1, body=_C1.body.replace("count = 25", "count = 1"),
                        expect={"pass": 2}),
    next(c for c in SMALL_CHECKS.configs if c.name == "c8_reducible"),
))


def _tamper_first_record(jsonl: str) -> str:
    """Claim a maximum deviation of 1, which no tracer within eps has.

    Records without that field (c8's error record) are left as they are.
    """
    lines = jsonl.splitlines(keepends=True)
    record = json.loads(lines[0])
    if "maxDeviation" not in record["witnessPayload"]:
        return jsonl
    record["witnessPayload"]["maxDeviation"] = "1"
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(lines)


def _lib(**overrides):
    names = ("parse_config", "run_check", "records_to_jsonl",
             "jsonl_to_records", "replay_verify_record")
    lib = {name: getattr(shadowspec, name) for name in names}
    lib.update(overrides)
    return SimpleNamespace(**lib)


def _pinned():
    return one_pass(_lib(), _TINY, None).digests


def test_clean_run_passes_the_gate():
    result = one_pass(_lib(), _TINY, None, pinned=_pinned())
    assert result.failed == 0
    assert result.attempted == 3 + len(_TINY.configs)


def test_tampered_payload_fails_replay_and_digest():
    pinned = _pinned()
    tampered = _lib(records_to_jsonl=lambda records: _tamper_first_record(
        shadowspec.records_to_jsonl(records)))
    result = one_pass(tampered, _TINY, None, pinned=pinned)
    # One replay mismatch plus one digest mismatch, both on the c1 config.
    assert result.failed == 2


def test_wrong_digest_fails():
    pinned = _pinned()
    pinned["c8_reducible"] = "0" * 64
    assert one_pass(_lib(), _TINY, None, pinned=pinned).failed == 1


def test_unexpected_outcome_counts_as_a_miss():
    records = shadowspec.run_check(shadowspec.parse_config(_TINY.configs[1].text()))
    assert gate.outcome_misses({"error:not-transitive": 1}, records) == 0
    assert gate.outcome_misses({"pass": 1}, records) == 1
    assert gate.outcome_misses({"error:not-transitive": 2}, records) == 1


def test_pinned_digests_cover_every_config():
    from perfbench.workloads import WORKLOADS
    pinned = gate.load_digests()
    assert {w: {c.name for c in wl.configs} for w, wl in WORKLOADS.items()} \
        == {w: set(d) for w, d in pinned.items()}


def test_seed_reaches_the_inputs():
    config = _TINY.configs[0]
    texts = {shadowspec.records_to_jsonl(shadowspec.run_check(
        shadowspec.parse_config(config.text(seed)))) for seed in (None, 1, 2)}
    assert len(texts) == 3
