"""End-to-end command line behavior, including exit codes."""

import hashlib
import json
import runpy
import sys
from pathlib import Path

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

# 8 steps of drift 1/1000 stay within eps/8 of a grid orbit: not-found
FAIL_CFG = (
    "system.kind = rotation\n"
    "system.angle = 377/610\n"
    "check.kind = falsify-shadowing\n"
    "check.epsilon = 1/4\n"
    "check.delta = 1/1000\n"
    "check.horizon = 8\n"
    "check.seed = 7\n"
)

ERROR_CFG = (
    "system.kind = sft\n"
    "system.transition = 10;01\n"
    "check.kind = spec\n"
    "check.epsilon = 1/8\n"
    "check.count = 1\n"
)


C8_ROTATION = Path(__file__).resolve().parents[1] / "configs" / "c8_rotation.cfg"


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


def test_falsify_on_a_torus_is_an_error_record(tmp_path, capsys):
    text = ("system.kind = toral\nsystem.matrix = 2 1 ; 1 1\n"
            "check.kind = falsify-shadowing\ncheck.epsilon = 1/8\n")
    code = main(["falsify-shadowing", "--config", cfg_file(tmp_path, text)])
    (record,) = jsonl_to_records(capsys.readouterr().out)
    assert code == 2
    assert (record.outcome, record.witness_payload) == ("error", {
        "error": "unsupported-system",
        "message": "falsification is not defined for ToralAutomorphism"})


def test_error_record_exits_two(tmp_path, capsys):
    code = main(["spec", "--config", cfg_file(tmp_path, ERROR_CFG)])
    records = jsonl_to_records(capsys.readouterr().out)
    assert code == 2
    assert records[0].outcome == "error"
    assert records[0].witness_payload["error"] == "not-transitive"


def test_uncalibrated_system_exits_two(tmp_path, capsys):
    text = ("system.kind = rotation\nsystem.angle = 1/3\n"
            "check.epsilon = 1/4\ncheck.count = 3\n")
    code = main(["check-shadowing", "--config", cfg_file(tmp_path, text)])
    records = jsonl_to_records(capsys.readouterr().out)
    assert code == 2
    assert [r.witness_payload["error"] for r in records] == \
        ["unsupported-system"] * 3


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


def test_check_refusing_its_config_exits_three(tmp_path, capsys):
    path = cfg_file(tmp_path, PASS_CFG.replace("check.epsilon = 1/4\n", ""))
    assert main(["check-shadowing", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("shadowspec: config-invariant: "
                            "check needs epsilon or epsilons\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["shadowspec"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("shadowspec.cli", run_name="__main__")
    assert info.value.code == 3
    assert "usage:" in capsys.readouterr().err


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


def test_replay_of_unreadable_sources(tmp_path, capsys):
    absent = str(tmp_path / "absent")
    assert main(["replay", "--config", absent + ".cfg"]) == 3
    assert main(["replay", absent + ".jsonl"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1] for line in err] == ["config-syntax"] * 2
    assert err[1].startswith(f"shadowspec: config-syntax: cannot read {absent}")


def test_replay_skips_fail_and_error_records(tmp_path, report_file, capsys):
    texts = []
    for command, text in (("spec", ERROR_CFG), ("falsify-shadowing", FAIL_CFG)):
        main([command, "--config", cfg_file(tmp_path, text)])
        texts.append(capsys.readouterr().out)
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(texts) + report_file.read_text())
    # only pass records carry a claim, so the exit code follows them alone
    assert main(["replay", str(mixed)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 spec error skipped",
        "1 falsify-shadowing fail skipped",
        "2 check-shadowing pass verified",
        "3 check-shadowing pass verified",
    ]


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


def test_replay_rejects_unknown_pseudo_orbit_form(report_file, capsys):
    lines = [json.loads(s) for s in report_file.read_text().splitlines()]
    lines[1]["witnessPayload"]["pseudoOrbit"]["kind"] = "bogus"
    report_file.write_text("\n".join(json.dumps(d) for d in lines))
    assert main(["replay", str(report_file)]) == 2
    assert "unknown pseudo-orbit form 'bogus'" in capsys.readouterr().err


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


def test_replay_of_a_drift_on_a_shift_exits_two(tmp_path, capsys):
    # a drift pseudo-orbit steps by a rotation angle, so on a shift the
    # record cannot be interpreted, even with a digest that matches
    out = tmp_path / "c8.jsonl"
    assert main(["falsify-shadowing", "--config", str(C8_ROTATION),
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["witnessPayload"]["pseudoOrbit"]["kind"] == "drift"
    description = "sft r=2 T=11;11"
    record["parameters"]["system"] = description
    record["systemDigest"] = hashlib.sha256(description.encode()).hexdigest()
    out.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    assert "a drift pseudo-orbit needs a rotation" in capsys.readouterr().err
