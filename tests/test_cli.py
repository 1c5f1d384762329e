"""Command line surface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glitchbench

from glitchbench.cli import main
from glitchbench.campaign import build_plan, run_campaign
from glitchbench.pipeline import run_pipeline
from glitchbench.rat import (build_dynamic_rat, build_static_rat, rat_to_csv,
                             verify_rat_empirically)
from glitchbench.timing import REFERENCE_TIMING, load_timing, reference_timing
from glitchbench.workloads import workload_program, workload_source

GOOD_SRC = """\
    addi x5, x0, 7
    addi x6, x5, 35
    li x7, 0x80000000
    sw x6, 0(x7)
    ebreak
"""


def run_cli(*argv):
    return main(list(argv))


def test_asm_then_run_image(tmp_path, capsys):
    src = tmp_path / "demo.s"
    src.write_text(GOOD_SRC)
    out = tmp_path / "demo.json"
    assert run_cli("asm", str(src), "-o", str(out), "--symbols") == 0
    assert out.exists()
    banner = capsys.readouterr().out
    assert "entry 0x0" in banner

    assert run_cli("run", str(out), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "HALTED"
    assert payload["output"] == [42]
    assert payload["engine"] == "pipeline"


def test_asm_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("addi x5, x0\n")
    assert run_cli("asm", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_asm_reports_a_wide_character_at_its_string(tmp_path, capsys):
    bad = tmp_path / "wide.s"
    bad.write_text('nop\n.ascii "€"\n')
    assert run_cli("asm", str(bad)) == 2
    assert capsys.readouterr() == (
        "", "error: line 2, col 8: character U+20AC does not fit in a byte\n")


def test_usage_errors_exit_1(capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli("inject", "--workload", "mb_load") == 1  # missing --cycle
    capsys.readouterr()


def test_missing_program_exits_2(capsys):
    assert run_cli("run") == 2
    assert run_cli("run", "--workload", "no_such_thing") == 2
    assert run_cli("inject", "--workload", "mb_load", "--cycle", "3",
                   "--offset", "5.0", "--policy", "bogus") == 2
    err = capsys.readouterr().err
    assert "unknown corruption policy" in err


def cli_subprocess(*argv):
    """(exit code, stderr) of the command line run in its own interpreter,
    so that an uncaught exception shows as a traceback."""

    src = str(Path(glitchbench.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "glitchbench.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stderr


SEGMENT = bytes(range(8))
MALFORMED_MANIFESTS = {
    "not_an_object": [1, 2],
    "segments_not_a_list": {"entry": 0, "segments": 5},
    "entry_not_an_integer": {"entry": "x", "segments": []},
    "base_not_an_integer": {"entry": 0, "segments": [
        {"base": "0", "file": "seg", "len": len(SEGMENT),
         "sha256": hashlib.sha256(SEGMENT).hexdigest()}]},
    # addresses outside the 32-bit space, each entry inside its segment
    **{name: {"entry": base, "segments": [
        {"base": base, "file": "seg", "len": len(SEGMENT),
         "sha256": hashlib.sha256(SEGMENT).hexdigest()}]}
       for name, base in (("base_negative", -16),
                          ("base_past_address_space", 1 << 40),
                          ("segment_end_past_address_space", (1 << 32) - 4))},
    "entry_negative": {"entry": -4, "segments": []},
    "entry_past_address_space": {"entry": 1 << 32, "segments": []},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_image_manifest_exits_2(case, tmp_path):
    (tmp_path / "seg").write_bytes(SEGMENT)
    manifest = tmp_path / "image.json"
    manifest.write_text(json.dumps(MALFORMED_MANIFESTS[case]))
    code, err = cli_subprocess("run", str(manifest))
    assert code == 2, err
    assert "Traceback" not in err
    assert "error:" in err


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    rep = tmp_path_factory.mktemp("report") / "rep.json"
    assert main(["campaign", "--workload", "mb_system", "--cycles", "2:4",
                 "--offset-range", "3.0:8.0:1.0", "-o", str(rep)]) == 0
    return rep


@pytest.mark.parametrize("argv, message", [
    (("rat", "--workload", "mb_system", "--verify", "--max-windows", "-1"),
     "--max-windows must be at least 0"),
    (("report", "REPORT", "--top", "-1"), "--top must be at least 0"),
    (("inject", "--workload", "mb_system", "--cycle", "-1",
      "--offset", "5.0"), "glitch cycle must be at least 0"),
    *[((*cmd, "--max-cycles", n), f"--max-cycles must be at least 1, got {n}")
      for n in ("0", "-5")
      for cmd in (("run", "--workload", "mb_system"),
                  ("rat", "--workload", "mb_system", "--dynamic"),
                  ("inject", "--workload", "mb_system", "--cycle", "3",
                   "--offset", "5.0"),
                  ("campaign", "--workload", "mb_system", "--cycles", "2:4",
                   "-o", "REPORT"))],
    *[(("rat", "--workload", "mb_system", "--verify", "--max-windows", "1",
        "--tolerance", v), message)
      for v, message in (("-1", "--tolerance must be at least 0, got -1.0"),
                         ("nan", "--tolerance must be at least 0, got nan"),
                         ("inf", "--tolerance must be finite, got inf"))],
])
def test_negative_counts_and_cycles_exit_2(argv, message, small_report,
                                           capsys):
    capsys.readouterr()
    argv = [str(small_report) if a == "REPORT" else a for a in argv]
    report = small_report.read_bytes()
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert "Traceback" not in err
    assert out == ""
    # a rejected campaign leaves its report file alone
    assert small_report.read_bytes() == report


def test_a_one_cycle_budget_is_accepted(capsys):
    assert run_cli("run", "--workload", "mb_system", "--max-cycles", "1") == 3
    assert "NOT_HALTED after cycle 1" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    # the glitch-free mb_system run is 24 cycles: cycle 23 is its last
    (("inject", "--workload", "mb_system", "--cycle", "23",
      "--offset", "2.0"), 0),
    (("inject", "--workload", "mb_system", "--cycle", "24",
      "--offset", "2.0"), 2),
    (("inject", "--workload", "mb_system", "--cycle", "5000",
      "--offset", "2.0"), 2),
    (("campaign", "--workload", "mb_system", "--cycles", "0:25",
      "--offset-range", "3.0:8.0:1.0", "-o", "OUT"), 2),
    (("campaign", "--workload", "mb_system", "--cycles", "5000:5001",
      "--offset-range", "3.0:8.0:1.0", "-o", "OUT"), 2),
    (("campaign", "--workload", "mb_system", "--cycles", "2:4",
      "--offset-range", "1:inf:0.5", "-o", "OUT"), 2),
    (("campaign", "--workload", "mb_system", "--cycles", "2:4",
      "--offset-range", "1:nan:0.5", "-o", "OUT"), 2),
])
def test_glitch_cycles_and_offsets_must_lie_in_the_run(argv, code, tmp_path,
                                                       capsys):
    argv = [str(tmp_path / "rep.json") if a == "OUT" else a for a in argv]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    if code == 2 and argv[0] == "inject":
        assert (f"cannot glitch cycle {argv[4]}: the pipeline is halted "
                f"at cycle 24") in err, err
    elif code == 2:
        assert ("glitch-free run" in err or "must be finite" in err), err


def test_inject_past_the_run_gives_the_pipeline_refusal():
    code, err = cli_subprocess("inject", "--workload", "mb_system",
                               "--cycle", "100000", "--offset", "5.0")
    assert code == 2, err
    assert "Traceback" not in err
    assert err == ("error: cannot glitch cycle 100000: the pipeline is "
                   "halted at cycle 24\n")


MALFORMED_REPORTS = {
    "not_an_object": lambda rep: [1],
    "missing_key": lambda rep: {"label": 1},
    "grid_not_an_object": lambda rep: {"label": "x", "grid": [],
                                       "summary": {}},
    "zero_points": lambda rep: {**rep, "grid": {**rep["grid"], "points": 0}},
    "float_count": lambda rep: {**rep, "summary": {
        **rep["summary"], "outcomes": {"NO_EFFECT": 1.5}}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_report_exits_2(case, small_report, tmp_path):
    bad = tmp_path / "bad.json"
    rep = json.loads(small_report.read_text())
    bad.write_text(json.dumps(MALFORMED_REPORTS[case](rep)))
    code, err = cli_subprocess("report", str(bad))
    assert code == 2, err
    assert "Traceback" not in err
    assert "is not a campaign report" in err


@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_offset_grid_above_the_cap_exits_2(step, tmp_path):
    code, err = cli_subprocess(
        "campaign", "--workload", "mb_system", "--cycles", "2:4",
        "--offset-range", f"1:9:{step}", "-o", str(tmp_path / "rep.json"))
    assert code == 2, err
    assert "Traceback" not in err
    assert "offsets" in err


@pytest.mark.parametrize("argv", [
    ("run", "--workload", "mb_system"),
    ("run", "--workload", "mb_system", "--golden"),
    ("inject", "--workload", "mb_load", "--cycle", "7", "--offset", "2.0",
     "--policy", "zero_late_bits"),
    ("rat", "--workload", "mb_system", "--verify", "--max-windows", "2"),
])
def test_text_output_goes_to_the_output_file(argv, tmp_path, capsys):
    assert run_cli(*argv) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n")
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "-o", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text


@pytest.mark.parametrize("argv, code", [
    (("run", "--workload", "mb_system", "--strict"), 0),
    (("rat", "--workload", "mb_system", "--dynamic", "--strict"), 1),
    (("inject", "--workload", "mb_system", "--cycle", "5",
      "--offset", "2.0", "--strict"), 1),
    (("campaign", "--workload", "mb_system", "--cycles", "2:3",
      "--strict"), 1),
])
def test_strict_only_where_it_acts(argv, code, tmp_path, capsys):
    assert run_cli(*argv, "-o", str(tmp_path / "out")) == code
    if code == 1:
        assert "--strict" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("rat", "nonexistent.s"), "needs --dynamic or --verify"),
    (("rat", "--workload", "mb_system", "--dynamic", "--verify"),
     "not allowed with argument --dynamic"),
    (("rat", "--max-windows", "3"), "--max-windows needs --verify"),
    (("rat", "--tolerance", "5"), "--tolerance needs --verify"),
    (("rat", "--max-cycles", "3"), "--max-cycles needs --dynamic or --verify"),
    # the usage error comes before the value check
    (("rat", "--max-windows", "-1"), "--max-windows needs --verify"),
    (("rat", "--workload", "mb_system", "--dynamic", "--tolerance", "nan"),
     "--tolerance needs --verify"),
    (("rat", "--max-cycles", "0"), "--max-cycles needs --dynamic or --verify"),
])
def test_rat_rejects_input_it_would_ignore(argv, message, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", [
    ("run",),
    # one point, so a campaign that accepts the index still ends quickly
    ("campaign", "--cycles", "0:1", "--offset-range", "9.0:9.0:1.0")],
    ids=["run", "campaign"])
@pytest.mark.parametrize("index", ["32", "-1"])
def test_bnn_input_out_of_range_exits_2(command, index, tmp_path):
    code, err = cli_subprocess(*command, "--workload", "bnn", "--input", index,
                               "-o", str(tmp_path / "out"))
    assert code == 2, err
    assert "Traceback" not in err
    assert "outside 0..31" in err


@pytest.mark.parametrize("index", ["0", "31"])
def test_bnn_input_edges_run(index, capsys):
    assert run_cli("run", "--workload", "bnn", "--input", index) == 0
    assert "HALTED" in capsys.readouterr().out


def test_run_not_halted_exits_3(tmp_path, capsys):
    src = tmp_path / "spin.s"
    src.write_text("spin: j spin\n")
    assert run_cli("run", str(src), "--max-cycles", "200") == 3
    capsys.readouterr()


def test_run_golden_agrees_with_pipeline(capsys):
    assert run_cli("run", "--workload", "mb_store", "--json") == 0
    pipe = json.loads(capsys.readouterr().out)
    assert run_cli("run", "--workload", "mb_store", "--golden",
                   "--json") == 0
    gold = json.loads(capsys.readouterr().out)
    assert pipe["output"] == gold["output"]
    assert pipe["retired"] == gold["retired"]
    assert gold["engine"] == "reference"
    assert "cycles" not in gold and "cycles" in pipe


def test_rat_static_matches_library(capsys):
    assert run_cli("rat") == 0
    out = capsys.readouterr().out
    assert out == rat_to_csv(build_static_rat(reference_timing()))
    assert run_cli("rat", "--json") == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 27
    assert {e["rank"] for e in entries} == set(range(1, 28))


def test_rat_dynamic_csv(capsys):
    assert run_cli("rat", "--workload", "mb_load", "--dynamic") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cycle,latch,stage,iclass")
    assert any(",lw" in line for line in lines[1:])


def test_rat_verify_small(capsys):
    assert run_cli("rat", "--workload", "mb_system", "--verify",
                   "--max-windows", "2") == 0
    out = capsys.readouterr().out
    assert "worst boundary error" in out
    assert "MISMATCH" not in out


NOT_HALTED = "mb_alu_imm did not halt within 6 cycles"
NO_BASELINE = "program does not halt within 6 cycles glitch-free"


@pytest.mark.parametrize("argv, message", [
    (("rat", "--verify"), NOT_HALTED),
    (("rat", "--dynamic"), NOT_HALTED),
    (("inject", "--cycle", "3", "--offset", "5.0"), NO_BASELINE),
    (("campaign", "--cycles", "2:4", "-o", "REPORT"), NO_BASELINE),
], ids=["--verify", "--dynamic", "inject", "campaign"])
def test_rat_on_a_run_that_does_not_halt_exits_3(argv, message, tmp_path,
                                                 capsys):
    report = tmp_path / "report.json"
    argv = [str(report) if a == "REPORT" else a for a in argv]
    assert run_cli(*argv, "--workload", "mb_alu_imm",
                   "--max-cycles", "6") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not report.exists()


def test_rat_verify_checks_the_windows_of_its_own_run(capsys):
    assert run_cli("rat", "--workload", "mb_system", "--verify",
                   "--max-windows", "3", "--json") == 0
    rows = json.loads(capsys.readouterr().out)["windows"]
    prog, timing = workload_program("mb_system"), reference_timing()
    run = run_pipeline(prog, timing=timing, record_trace=True)
    checks = verify_rat_empirically(prog, timing,
                                    build_dynamic_rat(run, timing)[:3])
    assert [(r["cycle"], r["latch"], r["empirical"], r["probes"])
            for r in rows] == \
        [(c.window.cycle, c.window.latch,
          [c.empirical_lo, c.empirical_hi], c.probes) for c in checks]


def test_inject_json_payload(capsys):
    assert run_cli("inject", "--workload", "mb_load", "--cycle", "7",
                   "--offset", "2.0", "--policy", "zero_late_bits",
                   "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "mb_load"
    assert payload["outcome"] != "NO_EFFECT"
    assert payload["root_cause"] == "IF_ID.instr_word"
    assert any(c["changed"] for c in payload["corruptions"])
    assert all({"latch", "field", "late_bits"} <= set(c)
               for c in payload["corruptions"])


def test_inject_faults_are_data_not_failures(capsys):
    # deep glitch on the reset cycle corrupts nothing: still exit 0
    assert run_cli("inject", "--workload", "mb_alu_imm", "--cycle", "0",
                   "--offset", "1.0") == 0
    assert "bit-identical" in capsys.readouterr().out


def test_campaign_cli_matches_library(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    csv = tmp_path / "rows.csv"
    assert run_cli("campaign", "--workload", "mb_system",
                   "--cycles", "2:12", "--offset-range", "3.0:8.0:1.0",
                   "-o", str(rep), "--csv", str(csv)) == 0
    capsys.readouterr()
    prog = workload_program("mb_system")
    plan, golden = build_plan(prog, reference_timing(), cycles=(2, 12),
                              offsets=(3.0, 8.0, 1.0), label="mb_system")
    expect = run_campaign(plan, golden)
    assert rep.read_text() == expect.to_json()
    assert csv.read_text() == expect.to_csv()

    assert run_cli("report", str(rep), "--top", "2") == 0
    out = capsys.readouterr().out
    assert "mb_system" in out and "outcomes:" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_campaign_files_and_stdout_hold_the_library_bytes(jobs, tmp_path,
                                                          capsys):
    """The report and rows the command writes, to files or to stdout, are
    to_json() and to_csv() byte for byte."""

    grid = ("--workload", "mb_system", "--cycles", "2:12",
            "--offset-range", "3.0:8.0:1.0", "--jobs", jobs)
    rep, rows = tmp_path / "rep.json", tmp_path / "rows.csv"
    assert run_cli("campaign", *grid, "-o", str(rep), "--csv", str(rows)) == 0
    capsys.readouterr()
    assert run_cli("campaign", *grid, "-o", "-") == 0
    stdout = capsys.readouterr().out
    plan, golden = build_plan(workload_program("mb_system"),
                              reference_timing(), cycles=(2, 12),
                              offsets=(3.0, 8.0, 1.0), label="mb_system")
    expect = run_campaign(plan, golden)
    assert rep.read_bytes() == expect.to_json().encode()
    assert rows.read_bytes() == expect.to_csv().encode()
    assert stdout == expect.to_json()


@pytest.mark.parametrize("flag", ["-o", "--csv"])
def test_campaign_writes_dash_to_stdout(flag, tmp_path, capsys,
                                        monkeypatch):
    """`-` is standard output, as for run, rat and inject; the summary then
    goes to stderr."""

    monkeypatch.chdir(tmp_path)
    other = "--csv" if flag == "-o" else "-o"
    assert run_cli("campaign", "--workload", "mb_system", "--cycles", "2:4",
                   "--offset-range", "3.0:8.0:1.0", flag, "-",
                   other, "file") == 0
    out, err = capsys.readouterr()
    plan, golden = build_plan(workload_program("mb_system"),
                              reference_timing(), cycles=(2, 4),
                              offsets=(3.0, 8.0, 1.0), label="mb_system")
    expect = run_campaign(plan, golden)
    report, rows = expect.to_json(), expect.to_csv()
    if flag == "--csv":
        report, rows = rows, report
    assert out == report
    assert (tmp_path / "file").read_text() == rows
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert err.startswith("mb_system: 12 injections over cycles [2, 4)")


def test_campaign_refuses_two_outputs_on_stdout(tmp_path, capsys,
                                               monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("glitchbench.cli.run_campaign", no_sweep)
    monkeypatch.chdir(tmp_path)
    assert run_cli("campaign", "--workload", "mb_system",
                   "-o", "-", "--csv", "-") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: -o and --csv cannot both be standard output\n"
    assert list(tmp_path.iterdir()) == []


def test_campaign_rejects_bad_ranges(capsys):
    assert run_cli("campaign", "--workload", "mb_system",
                   "--cycles", "9", "--offset-range", "3.0:8.0:1.0") == 2
    assert run_cli("campaign", "--workload", "mb_system",
                   "--offset-range", "0.2:8.0:1.0") == 2  # below min pulse
    capsys.readouterr()


def test_campaign_rejects_bad_jobs(capsys):
    for jobs in ("0", "-3"):
        assert run_cli("campaign", "--workload", "mb_system",
                       "--jobs", jobs) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, path", [
    ("-o", "missing/r.json"), ("-o", "."),
    ("--csv", "missing/r.csv"), ("--csv", "."),
])
def test_campaign_checks_output_paths_before_simulating(
        flag, path, tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("glitchbench.cli.run_campaign", no_sweep)
    monkeypatch.chdir(tmp_path)
    assert run_cli("campaign", "--workload", "mb_system", "-o", "r.json",
                   flag, path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_timing_env_and_flag(tmp_path, capsys, monkeypatch):
    # a louder-setup model via env: windows shrink, table still prints
    alt = tmp_path / "alt.json"
    alt.write_text(REFERENCE_TIMING.read_text())
    monkeypatch.setenv("GLITCHBENCH_TIMING", str(alt))
    assert run_cli("rat") == 0
    assert capsys.readouterr().out == \
        rat_to_csv(build_static_rat(load_timing(alt)))
    monkeypatch.setenv("GLITCHBENCH_TIMING", str(tmp_path / "nope.json"))
    assert run_cli("rat") == 2
    capsys.readouterr()


def test_timing_file_with_non_finite_values_exits_2(tmp_path, capsys):
    doc = json.loads(REFERENCE_TIMING.read_text())
    doc["clock_period_ns"] = float("inf")
    inf = tmp_path / "inf.json"
    inf.write_text(json.dumps(doc))   # written as Infinity
    assert run_cli("rat", "--timing", str(inf)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad timing model: clock_period_ns must be a " \
                  "finite number\n"


@pytest.mark.parametrize("argv, offset", [
    (("inject", "--workload", "mb_alu_imm", "--cycle", "3",
      "--offset", "20"), "20.0"),
    (("campaign", "--workload", "mb_alu_imm", "--offset-range", "0.5:9:0.5",
      "-o", "OUT"), "0.5"),
])
def test_offset_outside_the_glitch_range_is_not_a_bad_model(argv, offset,
                                                           tmp_path, capsys):
    argv = [str(tmp_path / "rep.json") if a == "OUT" else a for a in argv]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == \
        f"error: offset {offset} outside [1.0, 10.0)\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(*argv, "--timing", str(bad)) == 2
    assert capsys.readouterr().err.startswith(
        "error: bad timing model: timing file is not valid JSON")


def test_workload_listing(capsys):
    assert run_cli("workloads") == 0
    names = capsys.readouterr().out.split()
    assert names[0] == "bnn" and len(names) == 10


def test_source_and_workload_are_exclusive(tmp_path, capsys):
    src = tmp_path / "x.s"
    src.write_text(workload_source("mb_system"))
    assert run_cli("run", str(src), "--workload", "mb_system") == 2
    assert run_cli("run", str(src), "--input", "3") == 2
    capsys.readouterr()
