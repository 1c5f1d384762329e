"""Vulnerability ranking and glitch-window prediction.

Two views of the same timing data:

  * the static table ranks every (instruction class, latch) pair by its
    critical path: long paths have little slack and are the first to miss a
    shortened cycle, so rank 1 is the most vulnerable capture in the design;

  * the dynamic view walks a concrete glitch-free execution and, for each
    cycle, derives the offset band that corrupts exactly one latch and
    nothing else. A band exists only when the targeted capture needs strictly
    more time than every other capture happening at the same edge.

Predictions are checked against the simulator itself: glitch the edge that
opens the victim cycle of the glitch-free pipeline at a candidate offset
(Pipeline.glitched) and see which latches record corruption. Corruption
happens only at that edge, so a forked edge with no cycle clocked is
enough per probe, and boundaries are located by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import Program
from .glitch import GlitchSpec, corruptible
from .latches import CONSUMER_STAGE
from .machine import MAX_CYCLES
from .pipeline import Pipeline, PipelineRun, run_pipeline
from .timing import TimingModel

CSV_HEADER = "iclass,stage,t_crit_ns,slack_ns,window_lo_ns,window_hi_ns,rank"
# offset step of the walk across a window's interior
SCAN_STEP_NS = 0.05


@dataclass(frozen=True)
class RatEntry:
    iclass: str
    latch: str
    t_crit_ns: float
    slack_ns: float
    window_lo_ns: float
    window_hi_ns: float
    rank: int


def build_static_rat(timing: TimingModel) -> list[RatEntry]:
    """Rank all class/latch captures, most vulnerable (least slack) first."""

    rows = sorted(timing.crit_ns.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RatEntry(iclass, latch, crit, timing.slack(iclass, latch),
                     timing.min_glitch_ns, timing.threshold(iclass, latch),
                     rank)
            for rank, ((iclass, latch), crit) in enumerate(rows, start=1)]


def rat_to_csv(entries: list[RatEntry]) -> str:
    return CSV_HEADER + "\n" + "".join(
        f"{e.iclass},{e.latch},{e.t_crit_ns:.6g},{e.slack_ns:.6g},"
        f"{e.window_lo_ns:.6g},{e.window_hi_ns:.6g},{e.rank}\n"
        for e in entries)


@dataclass(frozen=True)
class SelectiveWindow:
    """Offsets in [lo_ns, hi_ns) corrupt only `latch` at `cycle`."""

    cycle: int
    latch: str
    stage: str
    iclass: str
    lo_ns: float
    hi_ns: float
    target: tuple | None  # (pc, mnemonic, iclass, dyn_id) of the consumer


def build_dynamic_rat(run: PipelineRun,
                      timing: TimingModel) -> list[SelectiveWindow]:
    """Selective windows for every cycle of a traced glitch-free run.

    Only corruptible captures compete: a held latch or a reset bubble
    cannot be corrupted, so it imposes no floor on anyone else's window.
    """

    if run.trace is None:
        raise ValueError("dynamic analysis needs a run with record_trace")
    windows = []
    o_min = timing.min_glitch_ns
    for entry in run.trace:
        driven = corruptible(entry.captures)
        thresholds = {latch: timing.threshold(iclass, latch)
                      for latch, iclass in driven.items()}
        for latch, hi in thresholds.items():
            lo = max([o_min] + [t for other, t in thresholds.items()
                                if other != latch])
            if lo < hi:
                windows.append(SelectiveWindow(
                    entry.cycle, latch, CONSUMER_STAGE[latch], driven[latch],
                    lo, hi, entry.occupancy.get(CONSUMER_STAGE[latch])))
    return windows


@dataclass(frozen=True)
class WindowCheck:
    window: SelectiveWindow
    empirical_lo: float
    empirical_hi: float
    lo_error: float
    hi_error: float
    selective: bool
    probes: int


def _bisect(corrupted, lo: float, hi: float, pred) -> float:
    """Boundary of a monotone predicate of the corrupted latches: true
    below, false at or above."""

    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        if pred(corrupted(mid)):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def verify_rat_empirically(program: Program, timing: TimingModel,
                           windows: list[SelectiveWindow] | None = None,
                           *, max_cycles: int = MAX_CYCLES,
                           full_runs: bool = False) -> list[WindowCheck]:
    """Probe every predicted window against the simulator.

    For each window the upper boundary (target latch stops corrupting) and,
    when above the glitch floor, the lower boundary (another latch starts
    corrupting) are located by bisection; a grid walk across the interior
    confirms that exactly the predicted latch is hit. Each probe is one
    `Pipeline.glitched` edge, which reads the corrupted latches without
    clocking the glitched cycle, or with `full_runs` a from-reset run to
    the end of the glitched cycle. A window at or past the glitch-free halt
    raises ValueError. `max_cycles` bounds the traced run that predicts
    the windows when none are given.
    """

    if windows is None:
        base_run = run_pipeline(program, timing=timing,
                                max_cycles=max_cycles, record_trace=True)
        windows = build_dynamic_rat(base_run, timing)

    o_min = timing.min_glitch_ns
    eps = 1e-6
    top = timing.clock_period_ns - eps
    checks = []
    base = None if full_runs else Pipeline(program, timing=timing)
    for w in sorted(windows, key=lambda w: w.cycle):
        while base is not None and base.cycle < w.cycle and base.clock():
            pass
        probes = 0

        def corrupted(offset: float) -> set[str]:
            nonlocal probes
            probes += 1
            spec = GlitchSpec(w.cycle, offset)
            probe = (base.glitched(spec) if base is not None else
                     run_pipeline(program, timing=timing, glitches=[spec],
                                  max_cycles=w.cycle + 1))
            return {c.latch for c in probe.corruptions}

        emp_hi = _bisect(corrupted, o_min, top, lambda hit: w.latch in hit)
        if w.lo_ns > o_min + eps:
            emp_lo = _bisect(corrupted, o_min, top,
                             lambda hit: hit - {w.latch} != set())
        else:
            emp_lo = o_min
        selective = True
        off = w.lo_ns + SCAN_STEP_NS / 2
        while selective and off < w.hi_ns:
            selective = corrupted(off) == {w.latch}
            off += SCAN_STEP_NS
        if corrupted(min(w.hi_ns + eps * 10, top)):
            selective = False
        checks.append(WindowCheck(
            w, emp_lo, emp_hi, abs(emp_lo - w.lo_ns), abs(emp_hi - w.hi_ns),
            selective, probes))
    return checks
