"""Command-line front end: configured checks in, report records out.

Exit codes: 0 all records pass, 1 some record fails (or a replayed record
no longer verifies), 2 some record errors or a report cannot be
interpreted, 3 usage or configuration problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import CHECK_KINDS, parse_config
from .errors import ConfigError, SchemaMismatchError
from .reporting import (
    jsonl_to_records,
    plot_csv,
    records_to_csv,
    records_to_jsonl,
    replay_verdicts,
)
from .runner import run_check


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadowspec",
        description="Deterministic shadowing, specification, and barycenter "
                    "checks over symbolic and toral systems, with replayable "
                    "reports.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in CHECK_KINDS:
        p = sub.add_parser(name, help=f"run a {name} check")
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="report destination (default stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
    rp = sub.add_parser("replay", help="re-verify a JSONL report")
    rp.add_argument("records", nargs="?",
                    help="report file (default: the config's output.path)")
    rp.add_argument("--config", help="config whose output.path holds the report")
    rp.add_argument("--out", help="verdict destination (default stdout)")
    rp.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    return parser


def _fail(code: str, message) -> None:
    print(f"shadowspec: {code}: {message}", file=sys.stderr)


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail("config-syntax", f"cannot read {path}: {exc}")
        return None
    try:
        return parse_config(text)
    except ConfigError as exc:
        _fail(exc.code, exc)
        return None


def _run_command(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 3
    kind = cfg.check.get("kind")
    if kind is not None and kind != args.command:
        _fail("config-invariant",
              f"config is for check {kind!r}, not {args.command!r}")
        return 3
    cfg.check["kind"] = args.command
    if args.seed is not None:
        cfg.check["seed"] = args.seed
    try:
        records = run_check(cfg)
    except ConfigError as exc:
        _fail(exc.code, exc)
        return 3
    if cfg.output.get("format") == "csv":
        body = records_to_csv(records)
    else:
        body = records_to_jsonl(records)
    _write(body, args.out or cfg.output.get("path"))
    if cfg.output.get("plot"):
        _write(plot_csv(records), cfg.output["plot"])
    if any(r.outcome == "error" for r in records):
        return 2
    if any(r.outcome == "fail" for r in records):
        return 1
    return 0


def _run_replay(args) -> int:
    path = args.records
    if path is None and args.config is not None:
        cfg = _load_config(args.config)
        if cfg is None:
            return 3
        path = cfg.output.get("path")
    if path is None:
        _fail("config-invariant",
              "replay needs a records file or a config with output.path")
        return 3
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail("config-syntax", f"cannot read {path}: {exc}")
        return 3
    try:
        records = jsonl_to_records(text)
        verdicts = list(replay_verdicts(records))
    except SchemaMismatchError as exc:
        _fail("schema-mismatch", exc)
        return 2
    _write("".join(f"{i} {rec.check_kind} {rec.outcome} {verdict}\n"
                   for i, (rec, verdict) in enumerate(zip(records, verdicts))),
           args.out)
    return 1 if "mismatch" in verdicts else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    if args.command == "replay":
        return _run_replay(args)
    return _run_command(args)


if __name__ == "__main__":
    raise SystemExit(main())
