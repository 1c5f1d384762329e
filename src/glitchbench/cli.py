"""Command line front end.

Exit codes: 0 for any completed analysis (observed faults are results,
not failures), 1 for usage errors, 2 for unreadable or unparseable
inputs, 3 when a requested run does not halt within its cycle budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict
from functools import partial
from pathlib import Path

from .asm import (AsmError, ImageError, Program, assemble, load_image,
                  store_image)
from .campaign import (NotHaltedError, build_plan, run_campaign,
                       single_injection)
from .glitch import CorruptionPolicy, GlitchSpec, IllegalPolicy
from .machine import MAX_CYCLES, run_golden
from .pipeline import run_pipeline
from .rat import (
    build_dynamic_rat, build_static_rat, rat_to_csv, verify_rat_empirically,
)
from .timing import REFERENCE_TIMING, TimingError, load_timing
from .workloads import workload_names, workload_program

TIMING_ENV = "GLITCHBENCH_TIMING"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_HALTED = 3

TOLERANCE_NS = 0.01      # rat --verify boundary tolerance

# least value of each counted option; --tolerance must also be finite
LEAST = {"jobs": 1, "max_cycles": 1, "max_windows": 0, "top": 0,
         "tolerance": 0}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; keep 2 for bad *input files* instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


class _InputError(Exception):
    pass


def _check_counts(args) -> None:
    """Reject a counted option below its least value; unset ones pass."""

    for name, least in LEAST.items():
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        if value is not None and not value >= least:  # nan fails too
            raise _InputError(f"{flag} must be at least {least}, got {value}")
        if value == math.inf:
            raise _InputError(f"{flag} must be finite, got {value}")


def _resolve_timing(args) -> "TimingModel":
    path = args.timing or os.environ.get(TIMING_ENV) or REFERENCE_TIMING
    try:
        return load_timing(path)
    except TimingError as exc:
        raise _InputError(f"bad timing model: {exc}")


def _load_program(args) -> tuple[Program, str]:
    """(program, label) from a positional path or --workload."""

    name, path = args.workload, args.program
    if name:
        if path:
            raise _InputError("give either a program file or --workload")
        return workload_program(name, input_index=args.input), name
    if not path:
        raise _InputError("no program given (file path or --workload)")
    if args.input is not None:
        raise _InputError("--input only applies to --workload bnn")
    p = Path(path)
    if p.suffix == ".json":
        return load_image(p), p.stem
    return assemble(p.read_text()), p.stem


def _policies(args) -> tuple[CorruptionPolicy, IllegalPolicy]:
    """--policy and --illegal-policy as enum members."""

    chosen = []
    for kind, what, name in ((CorruptionPolicy, "corruption", args.policy),
                             (IllegalPolicy, "illegal-word",
                              args.illegal_policy)):
        try:
            chosen.append(kind[name.upper()])
        except KeyError:
            raise _InputError(
                f"unknown {what} policy '{name}' "
                f"(choose from {', '.join(p.name.lower() for p in kind)})")
    return tuple(chosen)


def _range(text: str, form: str, convert, what: str) -> tuple:
    """`text` split at ':' into the fields `form` names, each converted."""

    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise _InputError(f"expected {form}, got '{text}'")
    try:
        return tuple(map(convert, parts))
    except ValueError:
        raise _InputError(f"bad {what} range '{text}'")


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """`pieces` in turn to the file at `path`, or to stdout when it is
    unset or '-'."""

    if path and path != "-":
        with open(path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(args, text: str, payload) -> None:
    """The payload as JSON under --json, else the text, to -o or stdout."""

    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args.output, (text,))


# ---------------- subcommands ----------------

def cmd_asm(args) -> int:
    src = Path(args.source)
    prog = assemble(src.read_text())
    out = args.output or str(src.with_suffix(".json"))
    store_image(prog, out)
    words = prog.words()
    print(f"{src}: {len(words)} words in {len(prog.segments)} segment(s), "
          f"entry 0x{prog.entry:x} -> {out}")
    if args.symbols:
        for name, addr in sorted(prog.symbols.items(), key=lambda kv: kv[1]):
            print(f"  0x{addr:08x} {name}")
    return EXIT_OK


def cmd_run(args) -> int:
    _check_counts(args)
    prog, label = _load_program(args)
    if args.golden:
        gold = run_golden(prog, max_steps=args.max_cycles, strict=args.strict)
        status, arch, n = gold.status, gold.state, len(gold.events)
    else:
        run = run_pipeline(prog, max_cycles=args.max_cycles,
                           strict=args.strict)
        status, arch, n = run.status, run.arch, len(run.retires)
    payload = {
        "program": label,
        "engine": "reference" if args.golden else "pipeline",
        "status": status,
        "retired": n,
        "halt_cause": arch.halt_cause,
        "exit_code": arch.exit_code,
        "output": arch.output_log,
    }
    if not args.golden:
        payload["cycles"] = run.cycles
    where = f"cycle {run.cycles}" if not args.golden else f"{n} steps"
    _emit(args, f"{label}: {status} after {where}, "
                f"cause={arch.halt_cause} exit={arch.exit_code} "
                f"output={arch.output_log}\n", payload)
    return EXIT_OK if status == "HALTED" else EXIT_NOT_HALTED


def cmd_rat(args) -> int:
    if not (args.dynamic or args.verify) and (
            args.program or args.workload or args.input is not None):
        args.error("a program (file, --workload or --input) needs "
                   "--dynamic or --verify")
    if args.max_windows is not None and not args.verify:
        args.error("--max-windows needs --verify")
    if args.tolerance is not None and not args.verify:
        args.error("--tolerance needs --verify")
    if args.max_cycles is not None and not (args.dynamic or args.verify):
        args.error("--max-cycles needs --dynamic or --verify")
    _check_counts(args)
    tolerance = TOLERANCE_NS if args.tolerance is None else args.tolerance
    max_cycles = MAX_CYCLES if args.max_cycles is None else args.max_cycles
    timing = _resolve_timing(args)
    if not (args.verify or args.dynamic):
        entries = build_static_rat(timing)
        _emit(args, rat_to_csv(entries), [asdict(e) for e in entries])
        return EXIT_OK
    prog, label = _load_program(args)
    run = run_pipeline(prog, timing=timing, max_cycles=max_cycles,
                       record_trace=True)
    if run.status != "HALTED":
        print(f"error: {label} did not halt within {max_cycles} cycles",
              file=sys.stderr)
        return EXIT_NOT_HALTED
    windows = build_dynamic_rat(run, timing)
    if args.verify:
        checks = verify_rat_empirically(prog, timing,
                                        windows[:args.max_windows])
        worst = 0.0
        rows = []
        for c in checks:
            w = c.window
            worst = max(worst, c.lo_error, c.hi_error)
            ok = c.selective and c.lo_error <= tolerance \
                and c.hi_error <= tolerance
            rows.append({
                "cycle": w.cycle, "latch": w.latch, "iclass": w.iclass,
                "predicted": [w.lo_ns, w.hi_ns],
                "empirical": [c.empirical_lo, c.empirical_hi],
                "lo_error": c.lo_error, "hi_error": c.hi_error,
                "selective": c.selective, "probes": c.probes, "ok": ok,
            })
        lines = [f"cycle {r['cycle']:5d} {r['latch']:5s} "
                 f"{r['iclass']:8s} predicted "
                 f"[{r['predicted'][0]:.4f}, {r['predicted'][1]:.4f}) "
                 f"empirical [{r['empirical'][0]:.4f}, "
                 f"{r['empirical'][1]:.4f}) "
                 f"{'ok' if r['ok'] else 'MISMATCH'}" for r in rows]
        lines.append(f"{len(rows)} windows, worst boundary error "
                     f"{worst:.4f} ns")
        _emit(args, "\n".join(lines) + "\n",
              {"program": label, "tolerance": tolerance,
               "windows": rows, "worst_error_ns": worst})
        return EXIT_OK
    lines = ["cycle,latch,stage,iclass,window_lo_ns,window_hi_ns,"
             "target_pc,target_mnemonic"]
    for w in windows:
        pc = f"0x{w.target[0]:x}" if w.target else ""
        mnem = w.target[1] if w.target else ""
        lines.append(f"{w.cycle},{w.latch},{w.stage},{w.iclass},"
                     f"{w.lo_ns:.6g},{w.hi_ns:.6g},{pc},{mnem}")
    _emit(args, "\n".join(lines) + "\n", {"program": label, "windows": [
        {"cycle": w.cycle, "latch": w.latch, "stage": w.stage,
         "iclass": w.iclass, "lo_ns": w.lo_ns, "hi_ns": w.hi_ns,
         "target_pc": w.target[0] if w.target else None,
         "target_mnemonic": w.target[1] if w.target else None}
        for w in windows]})
    return EXIT_OK


def cmd_inject(args) -> int:
    _check_counts(args)
    timing = _resolve_timing(args)
    prog, label = _load_program(args)
    spec = GlitchSpec(args.cycle, args.offset, *_policies(args))
    record, full, golden = single_injection(
        prog, timing, spec, max_cycles=args.max_cycles)
    payload = record.to_dict()
    payload["program"] = label
    payload["corruptions"] = [{**asdict(e), "changed": e.changed}
                              for e in full.corruptions]
    lines = [f"{label}: glitch cycle {spec.cycle} offset {spec.offset_ns}ns "
             f"policy {spec.policy.name}/{spec.illegal_policy.name}"]
    if not full.corruptions:
        lines.append("  no latch captured late bits; run is bit-identical "
                     "to clean")
    for e in full.corruptions:
        mark = "*" if e.changed else " "
        pc = f"pc 0x{e.pc:x}" if e.pc is not None else "no occupant"
        lines.append(f" {mark}{e.latch}.{e.field} [{e.iclass}] {pc} "
                     f"{len(e.late_bits)} late bit(s) "
                     f"0x{e.clean:x} -> 0x{e.corrupted:x}")
    for m in full.mechanisms:
        lines.append(f"  mechanism {m.kind} at pc 0x{m.pc:x}: {m.detail}")
    lines.append(f"  outcome {record.outcome} effect {record.effect} "
                 f"misclassified {'yes' if record.misclassified else 'no'}")
    lines.append(f"  faulty: {full.status} cycles {record.cycles} "
                 f"cause {record.halt_cause} output {list(record.output)}")
    lines.append(f"  golden: cycles {golden.cycles} cause "
                 f"{golden.halt_cause} output {list(golden.output)}")
    if record.divergence and record.divergence["retire_mismatches"]:
        first = record.divergence["retire_mismatches"][0]
        g = first["golden_pc"]
        f = first["faulty_pc"]
        lines.append(f"  first retire mismatch at slot {first['slot']}: "
                     f"golden {'-' if g is None else hex(g)} vs "
                     f"faulty {'-' if f is None else hex(f)}")
    _emit(args, "\n".join(lines) + "\n", payload)
    return EXIT_OK


def cmd_campaign(args) -> int:
    _check_counts(args)
    timing = _resolve_timing(args)
    prog, label = _load_program(args)
    cycles = (_range(args.cycles, "lo:hi", partial(int, base=0), "cycle")
              if args.cycles else None)
    offsets = (_range(args.offset_range, "lo:hi:step", float, "offset")
               if args.offset_range else None)
    policy, illegal_policy = _policies(args)
    if args.output == args.csv == "-":
        raise _InputError("-o and --csv cannot both be standard output")
    for path in filter(None, (args.output, args.csv)):  # before the sweep
        if Path(path).is_dir():
            raise _InputError(f"{path} is a directory")
        if not Path(path).parent.is_dir():
            raise _InputError(f"no directory to write {path} into")
    plan, golden = build_plan(
        prog, timing, cycles=cycles, offsets=offsets, policy=policy,
        illegal_policy=illegal_policy, label=label,
        max_cycles=args.max_cycles)
    result = run_campaign(plan, golden, jobs=args.jobs)
    _write(args.output, result.iter_json())
    if args.csv:
        _write(args.csv, result.iter_csv())
    summary = result.summary()
    lines = [f"{label}: {summary['points']} injections over cycles "
             f"[{plan.cycle_lo}, {plan.cycle_hi}) x {plan.offset_count} "
             f"offsets -> {args.output}",
             *_outcome_lines(summary["outcomes"], summary["points"])]
    if summary["misclassified"]:
        lines.append(f"  misclassified outputs: {summary['misclassified']}")
    print("\n".join(lines),  # the summary stays off a report on stdout
          file=sys.stderr if "-" in (args.output, args.csv) else sys.stdout)
    return EXIT_OK


def cmd_report(args) -> int:
    _check_counts(args)
    rep = json.loads(Path(args.report).read_text())
    try:
        text = _report_text(rep, args.top)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError,
            ValueError) as exc:
        raise _InputError(f"{args.report} is not a campaign report: {exc}")
    print(text, end="")
    return EXIT_OK


def _outcome_lines(outcomes: dict, points: int) -> list[str]:
    return [f"  {outcome:24s} {n:7d}  {100 * n / points:5.1f}%"
            for outcome, n in sorted(outcomes.items(), key=lambda kv: -kv[1])]


def _report_text(rep: dict, top: int) -> str:
    grid = rep["grid"]
    summary = rep["summary"]
    lines = [f"{rep['label']}: cycles [{grid['cycle_lo']}, {grid['cycle_hi']}) "
             f"x {grid['offset_count']} offsets = {grid['points']} points, "
             f"policy {rep['policy']}/{rep['illegal_policy']}"]
    gold = rep["golden"]
    lines.append(f"golden: {gold['cycles']} cycles, cause {gold['halt_cause']}, "
                 f"output {gold['output']}")
    lines.append("outcomes:")
    lines += _outcome_lines(summary["outcomes"], grid["points"])
    if summary["mechanisms"]:
        lines.append("mechanisms observed: " + ", ".join(
            f"{k} x{v}" for k, v in sorted(summary["mechanisms"].items())))
    ranked = sorted(summary["by_pc"].items(),
                    key=lambda kv: -sum(kv[1].values()))
    if ranked:
        lines.append(f"most-hit victim pcs (top {top}):")
        for pc, outcomes in ranked[:top]:
            total = sum(outcomes.values())
            detail = ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items()))
            lines.append(f"  {pc:>10s} {total:6d}  ({detail})")
    if summary["by_stage_class"]:
        lines.append("by consumer stage / instruction class:")
        for key, outcomes in sorted(summary["by_stage_class"].items()):
            total = sum(outcomes.values())
            lines.append(f"  {key:16s} {total:6d}")
    return "\n".join(lines) + "\n"


def cmd_workloads(args) -> int:
    for name in workload_names():
        print(name)
    return EXIT_OK


# ---------------- wiring ----------------

def _add_timing(p):
    p.add_argument("--timing", metavar="PATH",
                   help=f"timing model JSON (default ${TIMING_ENV} "
                        "or the built-in reference)")


def _add_program(p):
    p.add_argument("program", nargs="?",
                   help="assembly source (.s) or stored image (.json)")
    p.add_argument("--workload", metavar="NAME",
                   help="use a built-in program instead of a file")
    p.add_argument("--input", type=int, metavar="K",
                   help="stimulus index for --workload bnn")
    p.add_argument("--max-cycles", type=int, default=MAX_CYCLES,
                   metavar="N", help="glitch-free run budget")


def _add_policies(p):
    p.add_argument("--policy", default="stale_bits")
    p.add_argument("--illegal-policy", default="nop_replace")


def _add_output(p):
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glitchbench",
                     description="clock-glitch fault injection laboratory "
                                 "for a 4-stage RV32IM pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("asm", help="assemble a source file to an image")
    p.add_argument("source")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--symbols", action="store_true",
                   help="also list resolved symbols")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("run", help="run a program glitch-free")
    _add_program(p)
    p.add_argument("--golden", action="store_true",
                   help="use the single-cycle reference model")
    p.add_argument("--strict", action="store_true",
                   help="treat reads of unmapped memory as traps")
    _add_output(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("rat", help="reliability analysis tables")
    _add_program(p)
    _add_timing(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dynamic", action="store_true",
                      help="per-cycle selective windows for a program")
    mode.add_argument("--verify", action="store_true",
                      help="probe window boundaries empirically")
    p.add_argument("--max-windows", type=int, metavar="N",
                   help="verify at most N windows")
    p.add_argument("--tolerance", type=float, metavar="NS")
    _add_output(p)
    # unset, so cmd_rat can tell a --max-cycles that the static table ignores
    p.set_defaults(func=cmd_rat, error=p.error, max_cycles=None)

    p = sub.add_parser("inject", help="inject one glitch and classify it")
    _add_program(p)
    _add_timing(p)
    p.add_argument("--cycle", type=int, required=True)
    p.add_argument("--offset", type=float, required=True, metavar="NS")
    _add_policies(p)
    _add_output(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("campaign", help="sweep a (cycle, offset) grid")
    _add_program(p)
    _add_timing(p)
    p.add_argument("--cycles", metavar="LO:HI",
                   help="cycle range, default the whole run")
    p.add_argument("--offset-range", metavar="LO:HI:STEP",
                   help="offsets in ns, default a coarse whole-period scan")
    _add_policies(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="blocks of cycles, at least 1, run on at most "
                        "one process per CPU")
    p.add_argument("-o", "--output", default="report.json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH",
                   help="also write per-injection rows")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("report", help="summarize a stored campaign report")
    p.add_argument("report")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("workloads", help="list built-in programs")
    p.set_defaults(func=cmd_workloads)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # usage errors and --help
        return e.code or 0
    except NotHaltedError as exc:  # a glitch-free baseline that never halts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_HALTED
    except (_InputError, AsmError, ImageError, OSError, json.JSONDecodeError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
