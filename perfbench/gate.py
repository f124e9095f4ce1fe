"""Correctness gate: every miss found here counts into the failed total.

A run's records must have the expected outcomes, every pass record must
replay as verified, and at a config's default seed the canonical JSONL must
hash to the digest pinned in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    """Pinned digests as {workload: {config: sha256 hex}}."""
    return json.loads(DIGESTS_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome_key(record) -> str:
    if record.outcome == "error":
        return f"error:{record.witness_payload.get('error')}"
    return record.outcome


def outcome_misses(expect: dict, records) -> int:
    """Records with an outcome not expected, plus expected records missing."""
    got = Counter(outcome_key(r) for r in records)
    extra = sum(max(0, n - expect.get(k, 0)) for k, n in got.items())
    missing = max(0, sum(expect.values()) - len(records))
    return extra + missing


def digest_miss(jsonl: str, pinned: str | None) -> int:
    """1 when the JSONL does not hash to its pinned digest (or none is pinned)."""
    return int(pinned is None or sha256(jsonl) != pinned)


def replay_misses(replay_verify_record, records, clock, spans: list) -> int:
    """Replay every pass record; anything but a verified result is a miss.

    Each replay's (start, end), read from ``clock``, is appended to ``spans``.
    """
    misses = 0
    for record in records:
        if record.outcome != "pass":
            continue
        start = clock()
        try:
            ok = replay_verify_record(record) is True
        except Exception:  # a replay that raises is a miss, not a crash
            ok = False
        spans.append((start, clock()))
        misses += not ok
    return misses
