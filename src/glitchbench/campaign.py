"""Exhaustive glitch sweeps over a (cycle, offset) grid.

Each grid point is one independent experiment: run the program clean up
to the target cycle, shorten that one cycle to the given offset, then
let the machine run on under a hang budget and compare everything
architecturally visible against the glitch-free run.

Offsets are always reconstructed as lo + idx * step from the integer
index, never accumulated, so a sweep split across worker processes
produces float-identical records and a byte-identical report.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _string
from typing import ClassVar, Iterator

from .asm import Program
from .glitch import CorruptionPolicy, GlitchSpec, IllegalPolicy
from .latches import CONSUMER_STAGE
from .machine import MAX_CYCLES, TRAP_CAUSES
from .pipeline import (GHOST_INSTRUCTION, MUTATED_INSTRUCTION,
                       NOP_REPLACEMENT, Pipeline, PipelineRun, run_pipeline)
from .timing import TimingModel

HANG_FACTOR = 4
DIVERGENCE_LIMIT = 16
MAX_OFFSETS = 100_000  # most offsets one grid may sweep

# headline outcome labels, most severe first; mechanism kinds rank after TRAP
HANG = "HANG"
TRAP = "TRAP"
CONTROL_FLOW_DEVIATION = "CONTROL_FLOW_DEVIATION"
SDC_OUTPUT = "SDC_OUTPUT"
SDC_STATE_ONLY = "SDC_STATE_ONLY"
NO_EFFECT = "NO_EFFECT"

_MECHANISM_ORDER = (NOP_REPLACEMENT, MUTATED_INSTRUCTION, GHOST_INSTRUCTION)

CSV_HEADER = ("index,cycle,offset_ns,outcome,effect,mechanisms,corrupted,"
              "root_cause,root_pc,misclassified,cycles,halt_cause,output")


@dataclass(frozen=True, slots=True)
class RunSummary:
    """A pipeline run reduced to what classification reads: how it ended,
    the pcs it retired and the mechanism kinds it raised (from some point
    of the run on), and its final state."""

    status: str
    cycles: int
    pcs: tuple[int, ...]
    mechanisms: frozenset
    output: tuple[int, ...]
    regs: tuple[int, ...]
    mem: tuple[tuple[int, int], ...]  # sorted nonzero words
    halt_cause: str | None
    exit_code: int | None


def summarize(run: PipelineRun, n_retires: int = 0,
              n_mechanisms: int = 0) -> RunSummary:
    """Summary of `run` from its `n_retires`-th retire and
    `n_mechanisms`-th mechanism on."""

    arch = run.arch
    return RunSummary(run.status, run.cycles,
                      tuple(e.pc for e in run.retires[n_retires:]),
                      frozenset(m.kind for m in run.mechanisms[n_mechanisms:]),
                      tuple(arch.output_log), tuple(arch.regs),
                      tuple(sorted((a, v) for a, v in arch.mem.items() if v)),
                      arch.halt_cause, arch.exit_code)


class NotHaltedError(ValueError):
    """The glitch-free run does not halt within its cycle budget."""


def golden_baseline(program: Program, *,
                    max_cycles: int = MAX_CYCLES) -> RunSummary:
    """Summary of the glitch-free run, which must halt."""

    run = run_pipeline(program, max_cycles=max_cycles)
    if run.status != "HALTED":
        raise NotHaltedError(
            f"program does not halt within {max_cycles} cycles glitch-free")
    return summarize(run)


@dataclass(frozen=True)
class CampaignPlan:
    program: Program
    timing: TimingModel
    cycle_lo: int
    cycle_hi: int  # exclusive
    offset_lo: float
    offset_step: float
    offset_count: int
    policy: CorruptionPolicy = CorruptionPolicy.STALE_BITS
    illegal_policy: IllegalPolicy = IllegalPolicy.NOP_REPLACE
    hang_factor: ClassVar[int] = HANG_FACTOR
    label: str = "program"

    def offset(self, idx: int) -> float:
        return self.offset_lo + idx * self.offset_step

    def index(self, cycle: int, k: int) -> int:
        return (cycle - self.cycle_lo) * self.offset_count + k

    @property
    def cycles(self) -> range:
        return range(self.cycle_lo, self.cycle_hi)

    @property
    def points(self) -> int:
        return (self.cycle_hi - self.cycle_lo) * self.offset_count


def offset_grid(lo: float, hi: float, step: float) -> tuple[float, float, int]:
    """(lo, step, count) covering [lo, hi] inclusive of a landing endpoint."""

    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"offset range {lo}:{hi}:{step} must be finite")
    if step <= 0:
        raise ValueError("offset step must be positive")
    if hi < lo:
        raise ValueError("empty offset range")
    # compared as a float, so an overflowing span is rejected, not built
    span = (hi - lo) / step + 1e-9
    if span >= MAX_OFFSETS:
        raise ValueError(f"offset range {lo}:{hi}:{step} has more than "
                         f"{MAX_OFFSETS} offsets")
    return lo, step, int(span) + 1


def build_plan(program: Program, timing: TimingModel, *,
               cycles: tuple[int, int] | None = None,
               offsets: tuple[float, float, float] | None = None,
               policy: CorruptionPolicy = CorruptionPolicy.STALE_BITS,
               illegal_policy: IllegalPolicy = IllegalPolicy.NOP_REPLACE,
               label: str = "program",
               max_cycles: int = MAX_CYCLES) -> tuple[CampaignPlan, RunSummary]:
    """Fill grid defaults from the glitch-free run and validate bounds."""

    golden = golden_baseline(program, max_cycles=max_cycles)
    if cycles is None:
        cycles = (0, golden.cycles)
    lo_c, hi_c = cycles
    if not 0 <= lo_c < hi_c <= golden.cycles:
        raise ValueError(f"bad cycle range {lo_c}:{hi_c} (the glitch-free "
                         f"run has {golden.cycles} cycles)")
    if offsets is None:
        t = timing
        offsets = (t.min_glitch_ns, t.clock_period_ns - 2 * t.setup_ns, 0.5)
    plan = CampaignPlan(program, timing, lo_c, hi_c, *offset_grid(*offsets),
                        policy, illegal_policy, label=label)
    for idx in (0, plan.offset_count - 1):
        timing.check_offset(plan.offset(idx))
    return plan, golden


@dataclass(frozen=True)
class OutcomeRecord:
    index: int
    cycle: int
    offset_idx: int
    offset_ns: float
    outcome: str
    effect: str
    mechanisms: tuple[str, ...]
    corrupted: tuple[str, ...]  # "LATCH.field" sites whose value changed
    root_cause: str             # first changed site, "" for NO_EFFECT
    root_iclass: str
    root_pc: int | None
    misclassified: bool
    cycles: int
    halt_cause: str | None
    exit_code: int | None
    output: tuple[int, ...]
    divergence: dict | None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    def to_csv_row(self) -> str:
        return ",".join([
            str(self.index), str(self.cycle), repr(self.offset_ns),
            self.outcome, self.effect,
            ";".join(self.mechanisms), ";".join(self.corrupted),
            self.root_cause,
            "" if self.root_pc is None else f"0x{self.root_pc:x}",
            "1" if self.misclassified else "0",
            str(self.cycles), self.halt_cause or "",
            ";".join(str(v) for v in self.output),
        ])


_RECORD_FIELDS = tuple(f.name for f in fields(OutcomeRecord))


def first_divergence(golden_pcs, faulty_pcs, changed_events) -> dict:
    """Where the fault took hold: the first corrupted site plus the first
    retirement slots where the two pc streams disagree."""

    seed = None
    if changed_events:
        e = changed_events[0]
        seed = {"cycle": e.cycle, "latch": e.latch, "field": e.field,
                "pc": e.pc}
    mismatches = []
    for i in range(max(len(golden_pcs), len(faulty_pcs))):
        g = golden_pcs[i] if i < len(golden_pcs) else None
        f = faulty_pcs[i] if i < len(faulty_pcs) else None
        if g != f:
            mismatches.append({"slot": i, "golden_pc": g, "faulty_pc": f})
            if len(mismatches) >= DIVERGENCE_LIMIT:
                break
    return {"seed": seed, "retire_mismatches": mismatches}


def classify_outcome(golden: RunSummary, *, status: str,
                     pcs: tuple[int, ...], output: tuple[int, ...],
                     regs: tuple[int, ...], mem: tuple[tuple[int, int], ...],
                     halt_cause: str | None, exit_code: int | None,
                     mechanisms: tuple[str, ...]) -> tuple[str, str, bool]:
    """(headline outcome, effect class, misclassified flag)."""

    if pcs != golden.pcs:
        effect = CONTROL_FLOW_DEVIATION
    elif output != golden.output:
        effect = SDC_OUTPUT
    elif (regs != golden.regs or mem != golden.mem
          or halt_cause != golden.halt_cause or exit_code != golden.exit_code):
        effect = SDC_STATE_ONLY
    else:
        effect = NO_EFFECT

    if status != "HALTED":
        outcome = HANG
    elif halt_cause != golden.halt_cause and halt_cause in TRAP_CAUSES:
        outcome = TRAP
    elif effect != NO_EFFECT:
        outcome = next((k for k in _MECHANISM_ORDER if k in mechanisms),
                       effect)
    else:
        outcome = NO_EFFECT
    misclassified = status == "HALTED" and output != golden.output
    return outcome, effect, misclassified


def _record(plan: CampaignPlan, golden: RunSummary, cycle: int, k: int,
            changed: list, pcs: tuple[int, ...], mechanisms: set,
            tail: RunSummary) -> OutcomeRecord:
    """Classify grid point (cycle, k) from the retires and mechanisms that
    precede `tail`, and `tail` itself."""

    pcs += tail.pcs
    mechanisms = tuple(sorted(mechanisms | tail.mechanisms))
    outcome, effect, misclassified = classify_outcome(
        golden, status=tail.status, pcs=pcs, output=tail.output,
        regs=tail.regs, mem=tail.mem, halt_cause=tail.halt_cause,
        exit_code=tail.exit_code, mechanisms=mechanisms)
    divergence = None
    if effect != NO_EFFECT or outcome != NO_EFFECT:
        divergence = first_divergence(golden.pcs, pcs, changed)
    root = changed[0] if changed else None
    return OutcomeRecord(
        plan.index(cycle, k), cycle, k, plan.offset(k), outcome, effect,
        mechanisms,
        tuple(dict.fromkeys(f"{e.latch}.{e.field}" for e in changed)),
        f"{root.latch}.{root.field}" if root else "",
        (root.iclass or "") if root else "",
        root.pc if root else None,
        misclassified, tail.cycles, tail.halt_cause, tail.exit_code,
        tail.output, divergence)


def from_reset_record(plan: CampaignPlan, golden: RunSummary,
                      cycle: int, k: int) -> tuple[OutcomeRecord, PipelineRun]:
    """Grid point (cycle, k) the plain way: (record, from-reset run).

    No fork, no skipped continuation, no memo: the path every campaign
    record must match exactly.
    """

    spec = GlitchSpec(cycle, plan.offset(k), plan.policy, plan.illegal_policy)
    run = run_pipeline(plan.program, timing=plan.timing, glitches=[spec],
                       max_cycles=golden.cycles * plan.hang_factor)
    changed = [e for e in run.corruptions if e.changed]
    return _record(plan, golden, cycle, k, changed, (), set(),
                   summarize(run)), run


def _probe(plan: CampaignPlan, golden: RunSummary, baseline: Pipeline,
           base_pcs: tuple[int, ...], cycle: int, k: int, budget: int,
           memo: dict) -> OutcomeRecord:
    fork = baseline.glitched(GlitchSpec(cycle, plan.offset(k),
                                        plan.policy, plan.illegal_policy))
    changed = [e for e in fork.corruptions if e.changed]
    if not changed:
        # the shortened edge met timing everywhere that mattered; the run
        # goes on as the golden run, skip simulating it
        return _record(plan, golden, cycle, k, [], (), set(), golden)

    # the continuation depends only on the state after the glitched cycle:
    # simulate each distinct state once, splice it onto this point's prefix
    fork.clock()
    pcs = base_pcs + tuple(e.pc for e in fork.retires)
    mechanisms = {m.kind for m in fork.mechanisms}
    key = fork.state_key()
    tail = memo.get(key)
    if tail is None:
        n_retires, n_mechanisms = len(fork.retires), len(fork.mechanisms)
        fork.run(budget)
        tail = memo[key] = summarize(fork.result(), n_retires, n_mechanisms)
    return _record(plan, golden, cycle, k, changed, pcs, mechanisms, tail)


def _simulate_cycles(plan: CampaignPlan, golden: RunSummary,
                     cycles: list[int]) -> list[OutcomeRecord]:
    """One rolling baseline, forked once per grid point."""

    budget = golden.cycles * plan.hang_factor
    baseline = Pipeline(plan.program, timing=plan.timing)
    records = []
    for cycle in sorted(cycles):
        while baseline.cycle < cycle and baseline.arch.halt_cause is None:
            baseline.clock()
        base_pcs = tuple(e.pc for e in baseline.retires)
        # continuations by post-glitch state key; the hang budget is an
        # absolute cycle, so no entry may outlive its glitch cycle
        memo: dict = {}
        for k in range(plan.offset_count):
            records.append(_probe(plan, golden, baseline, base_pcs,
                                  cycle, k, budget, memo))
    return records


@dataclass
class CampaignResult:
    plan: CampaignPlan
    golden: RunSummary
    records: list[OutcomeRecord] = field(default_factory=list)

    def summary(self) -> dict:
        outcomes = Counter(r.outcome for r in self.records)
        effects = Counter(r.effect for r in self.records)
        mechanisms = Counter(m for r in self.records for m in r.mechanisms)
        sites = Counter(s for r in self.records for s in r.corrupted)
        by_stage_class: dict[str, Counter] = {}
        by_pc: dict[str, Counter] = {}
        for r in self.records:
            if not r.root_cause:
                continue
            latch = r.root_cause.split(".", 1)[0]
            key = f"{CONSUMER_STAGE[latch]}/{r.root_iclass or '?'}"
            by_stage_class.setdefault(key, Counter())[r.outcome] += 1
            if r.root_pc is not None:
                by_pc.setdefault(f"0x{r.root_pc:x}", Counter())[r.outcome] += 1
        return {
            "points": len(self.records),
            "outcomes": dict(sorted(outcomes.items())),
            "effects": dict(sorted(effects.items())),
            "mechanisms": dict(sorted(mechanisms.items())),
            "corrupted_sites": dict(sorted(sites.items())),
            "misclassified": sum(1 for r in self.records if r.misclassified),
            "by_stage_class": {k: dict(sorted(v.items()))
                               for k, v in sorted(by_stage_class.items())},
            "by_pc": {k: dict(sorted(v.items()))
                      for k, v in sorted(by_pc.items())},
        }

    def header(self) -> dict:
        """Every top-level entry of the report but its records."""

        plan = self.plan
        return {
            "label": plan.label,
            "grid": {
                "cycle_lo": plan.cycle_lo,
                "cycle_hi": plan.cycle_hi,
                "offset_lo_ns": plan.offset_lo,
                "offset_step_ns": plan.offset_step,
                "offset_count": plan.offset_count,
                "points": plan.points,
            },
            "policy": plan.policy.name,
            "illegal_policy": plan.illegal_policy.name,
            "hang_budget_cycles": self.golden.cycles * plan.hang_factor,
            "golden": {
                "cycles": self.golden.cycles,
                "halt_cause": self.golden.halt_cause,
                "exit_code": self.golden.exit_code,
                "output": list(self.golden.output),
                "retired": len(self.golden.pcs),
            },
            "summary": self.summary(),
        }

    def iter_json(self) -> Iterator[str]:
        """The report in pieces: the entries before the records, one piece
        per record, then the rest. Joined, they are exactly
        json.dumps(report, sort_keys=True, indent=2) + "\n": stable key
        order and no timestamps, so byte-identical across reruns and
        across any worker split."""

        doc = self.header()
        doc["records"] = self.records
        for i, key in enumerate(sorted(doc)):
            yield f"{',' if i else '{'}\n  {_string(key)}: "
            if key == "records" and self.records:
                yield "["
                for j, r in enumerate(self.records):
                    yield ("," if j else "") + _record_json(r)
                yield "\n  ]"
            else:
                yield _json(doc[key], "\n  ")
        yield "\n}\n"

    def iter_csv(self) -> Iterator[str]:
        """The header line, then one line per record."""

        yield CSV_HEADER + "\n"
        for r in self.records:
            yield r.to_csv_row() + "\n"

    def to_json(self) -> str:
        return "".join(self.iter_json())

    def to_csv(self) -> str:
        return "".join(self.iter_csv())


def _json(value, nl: str) -> str:
    """`value` as json.dumps(value, sort_keys=True, indent=2) writes it,
    where `nl` is the line break and indent of the line it starts on.
    Takes the types a report holds: str, int, float, bool, None, lists,
    tuples and dicts with str keys."""

    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + ",".join(f"{inner}{_string(k)}: {_json(v, inner)}"
                              for k, v in sorted(value.items())) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ",".join(inner + _json(v, inner)
                              for v in value) + nl + "]"
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


# a record's fields in key order, each with the text before its value
_RECORD_KEYS = tuple((name, f"\n      {_string(name)}: ")
                     for name in sorted(_RECORD_FIELDS))


def _record_json(r: OutcomeRecord) -> str:
    """One record as the report's records list holds it, written from its
    fields without building its dict."""

    return "\n    {" + ",".join(key + _json(getattr(r, name), "\n      ")
                                for name, key in _RECORD_KEYS) + "\n    }"


def single_injection(program: Program, timing: TimingModel, spec: GlitchSpec,
                     *, max_cycles: int = MAX_CYCLES):
    """One glitch, fully classified: (record, faulty run, golden baseline).

    The returned run is a from-reset simulation carrying the complete
    corruption and mechanism logs for display; the record classifies it.
    """

    golden = golden_baseline(program, max_cycles=max_cycles)
    plan = CampaignPlan(program, timing, spec.cycle, spec.cycle + 1,
                        spec.offset_ns, 1.0, 1, spec.policy,
                        spec.illegal_policy, label="inject")
    record, full = from_reset_record(plan, golden, spec.cycle, 0)
    return record, full, golden


def run_campaign(plan: CampaignPlan, golden: RunSummary, *,
                 jobs: int = 1) -> CampaignResult:
    cycles = list(plan.cycles)
    jobs = min(jobs, len(cycles))
    if jobs <= 1:
        records = _simulate_cycles(plan, golden, cycles)
    else:
        # contiguous blocks, each rolling one baseline forward, on at most
        # one process per CPU
        n = len(cycles)
        blocks = [(plan, golden, cycles[i * n // jobs:(i + 1) * n // jobs])
                  for i in range(jobs)]
        with multiprocessing.Pool(min(jobs, os.cpu_count() or 1)) as pool:
            chunks = pool.starmap(_simulate_cycles, blocks)
        records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: rec.index)
    return CampaignResult(plan, golden, records)
