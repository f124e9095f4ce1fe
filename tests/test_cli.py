"""End-to-end command line behavior, including exit codes."""

import json

import pytest

from shadowspec.cli import main
from shadowspec.reporting import jsonl_to_records

PASS_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = check-shadowing\n"
    "check.epsilon = 1/4\n"
    "check.count = 2\n"
    "check.maxLength = 12\n"
    "check.seed = 5\n"
)

FAIL_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = falsify-shadowing\n"
    "check.epsilon = 1/4\n"
    "check.horizon = 40\n"
    "check.seed = 7\n"
)

ERROR_CFG = (
    "system.kind = sft\n"
    "system.transition = 10;01\n"
    "check.kind = spec\n"
    "check.epsilon = 1/8\n"
    "check.count = 1\n"
)


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_pass_run_writes_jsonl_to_stdout(tmp_path, capsys):
    code = main(["check-shadowing", "--config", cfg_file(tmp_path, PASS_CFG)])
    out = capsys.readouterr().out
    assert code == 0
    records = jsonl_to_records(out)
    assert len(records) == 2
    assert all(r.outcome == "pass" for r in records)


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["check-shadowing", "--config", cfg_file(tmp_path, PASS_CFG),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert len(jsonl_to_records(out.read_text())) == 2


def test_config_output_path_used_without_out_flag(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    path = cfg_file(tmp_path, PASS_CFG + f"output.path = {report}\n")
    assert main(["check-shadowing", "--config", path]) == 0
    capsys.readouterr()
    assert report.exists()


def test_failing_search_exits_one(tmp_path, capsys):
    code = main(["falsify-shadowing", "--config", cfg_file(tmp_path, FAIL_CFG)])
    records = jsonl_to_records(capsys.readouterr().out)
    assert code == 1
    assert records[0].outcome == "fail"
    assert records[0].witness_payload["status"] == "not-found"


def test_error_record_exits_two(tmp_path, capsys):
    code = main(["spec", "--config", cfg_file(tmp_path, ERROR_CFG)])
    records = jsonl_to_records(capsys.readouterr().out)
    assert code == 2
    assert records[0].outcome == "error"
    assert records[0].witness_payload["error"] == "not-transitive"


def test_csv_output_format(tmp_path, capsys):
    path = cfg_file(tmp_path, PASS_CFG + "output.format = csv\n")
    assert main(["check-shadowing", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("schemaVersion,checkKind,")


def test_plot_file_written(tmp_path, capsys):
    dev = tmp_path / "dev.csv"
    path = cfg_file(tmp_path, PASS_CFG + f"output.plot = {dev}\n")
    assert main(["check-shadowing", "--config", path]) == 0
    capsys.readouterr()
    assert dev.read_text().splitlines()[0] == "record,index,deviation"


def test_seed_override_matches_config_seed(tmp_path, capsys):
    base = cfg_file(tmp_path, PASS_CFG)
    main(["check-shadowing", "--config", base, "--seed", "99"])
    overridden = capsys.readouterr().out
    reseeded = cfg_file(tmp_path, PASS_CFG.replace("seed = 5", "seed = 99"),
                        name="reseeded.cfg")
    main(["check-shadowing", "--config", reseeded])
    assert capsys.readouterr().out == overridden
    main(["check-shadowing", "--config", base])
    assert capsys.readouterr().out != overridden


# --- usage and config failures ----------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 3
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_missing_config_flag_is_usage_error(capsys):
    assert main(["spec"]) == 3
    capsys.readouterr()


def test_unreadable_config_path(tmp_path, capsys):
    assert main(["spec", "--config", str(tmp_path / "absent.cfg")]) == 3
    assert "config-syntax" in capsys.readouterr().err


def test_invalid_config_reports_line(tmp_path, capsys):
    path = cfg_file(tmp_path, "system.kind = toral\nsystem.matrix = 1 1 ; 0 1\n")
    assert main(["periodic-points", "--config", path]) == 3
    assert "config-invariant" in capsys.readouterr().err


def test_subcommand_config_kind_mismatch(tmp_path, capsys):
    path = cfg_file(tmp_path, PASS_CFG)
    assert main(["barycenter", "--config", path]) == 3
    assert "config-invariant" in capsys.readouterr().err


# --- replay -------------------------------------------------------------------

@pytest.fixture()
def report_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["check-shadowing", "--config", cfg_file(tmp_path, PASS_CFG),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_replay_verifies_genuine_report(report_file, capsys):
    assert main(["replay", str(report_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.endswith("pass verified") for line in lines)


def test_replay_via_config_output_path(tmp_path, report_file, capsys):
    path = cfg_file(tmp_path, PASS_CFG + f"output.path = {report_file}\n",
                    name="replay.cfg")
    assert main(["replay", "--config", path]) == 0
    capsys.readouterr()


def test_replay_without_source_is_usage_error(capsys):
    assert main(["replay"]) == 3
    capsys.readouterr()


def test_replay_flags_tampered_payload(report_file, capsys):
    lines = [json.loads(s) for s in report_file.read_text().splitlines()]
    lines[0]["witnessPayload"]["maxDeviation"] = "1"
    report_file.write_text("\n".join(json.dumps(d) for d in lines))
    assert main(["replay", str(report_file)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("mismatch")
    assert out[1].endswith("verified")


def test_replay_rejects_unreadable_payload(report_file, capsys):
    lines = [json.loads(s) for s in report_file.read_text().splitlines()]
    del lines[0]["witnessPayload"]["tracer"]
    report_file.write_text("\n".join(json.dumps(d) for d in lines))
    assert main(["replay", str(report_file)]) == 2
    assert "schema-mismatch" in capsys.readouterr().err


def test_replay_rejects_foreign_digest(report_file, capsys):
    lines = [json.loads(s) for s in report_file.read_text().splitlines()]
    lines[0]["systemDigest"] = "0" * 64
    report_file.write_text("\n".join(json.dumps(d) for d in lines))
    assert main(["replay", str(report_file)]) == 2
    assert "schema-mismatch" in capsys.readouterr().err


def test_replay_rejects_malformed_report(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a report\n")
    assert main(["replay", str(bad)]) == 2
    capsys.readouterr()
