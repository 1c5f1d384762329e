"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public glitchbench callables with timing wrappers for
the duration of one traced repetition and restores them afterwards; the
program itself is not modified. Spans are not kept one per call (one bnn
sweep makes ~335k clock calls): they are folded at once into buckets keyed
by (span name, parent span name), each holding a count, the total time and
the self time (total minus the time of traced child spans).

Each Pipeline.clock call is classified when it returns:
  pipeline.clock.glitched  plan_effect ran under it
  pipeline.clock.run       under Pipeline.run (timed as part of that run)
  pipeline.clock.advance   any other call (rolling a baseline forward)
"""

from __future__ import annotations

import time

from glitchbench import campaign, machine, pipeline, rat, workloads
from glitchbench.pipeline import Pipeline
from glitchbench.timing import TimingModel

ROOT = ""
RUN = "pipeline.run"
RUN_PIPELINE = "pipeline.run_pipeline"
PLAN_EFFECT = "glitch.plan_effect"
VERIFY = "rat.verify_rat_empirically"


class Tracer:
    def __init__(self):
        self.stack: list[list] = [[ROOT, 0.0, False]]  # name, child s, flag
        self.buckets: dict[tuple[str, str], list] = {}  # count, total, self
        self.cycles = {"clean": 0, "continuation": 0}
        self._saved: list = []

    # -- bookkeeping ---------------------------------------------------------

    def _close(self, name: str, frame: list, dt: float) -> str:
        parent = self.stack[-1]
        parent[1] += dt
        key = (name, parent[0])
        b = self.buckets.get(key)
        if b is None:
            self.buckets[key] = [1, dt, dt - frame[1]]
        else:
            b[0] += 1
            b[1] += dt
            b[2] += dt - frame[1]
        return parent[0]

    def total(self, name: str, parent: str | None = None) -> tuple:
        """(count, total s, self s) of a span name, summed over parents
        unless one is given."""

        n = t = s = 0
        for (k, p), (cn, ct, cs) in self.buckets.items():
            if k == name and (parent is None or p == parent):
                n += cn
                t += ct
                s += cs
        return n, t, s

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, *, marks_parent=False):
        stack = self.stack
        now = time.perf_counter

        def wrapped(*args, **kwargs):
            if marks_parent:
                stack[-1][2] = True
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                stack.pop()
                self._close(name, frame, dt)
        return wrapped

    def _clock(self, fn):
        stack = self.stack
        now = time.perf_counter

        def clock(p):
            frame = ["pipeline.clock", 0.0, False]
            stack.append(frame)
            t0 = now()
            try:
                return fn(p)
            finally:
                dt = now() - t0
                stack.pop()
                if frame[2]:
                    name = "pipeline.clock.glitched"
                elif stack[-1][0] == RUN:
                    name = "pipeline.clock.run"
                else:
                    name = "pipeline.clock.advance"
                self._close(name, frame, dt)
        return clock

    def _run(self, fn):
        stack = self.stack
        now = time.perf_counter
        cycles = self.cycles

        def run(p, max_cycles):
            c0 = p.cycle
            frame = [RUN, 0.0, False]
            stack.append(frame)
            t0 = now()
            try:
                return fn(p, max_cycles)
            finally:
                dt = now() - t0
                stack.pop()
                parent = self._close(RUN, frame, dt)
                kind = "clean" if parent == RUN_PIPELINE else "continuation"
                cycles[kind] += p.cycle - c0
        return run

    # -- install / remove ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        run_pipeline = self._span(RUN_PIPELINE, pipeline.run_pipeline)
        for module in (pipeline, campaign, rat):
            self._patch(module, "run_pipeline", run_pipeline)
        self._patch(Pipeline, "fork",
                    self._span("pipeline.fork", Pipeline.fork))
        self._patch(Pipeline, "clock", self._clock(Pipeline.clock))
        self._patch(Pipeline, "run", self._run(Pipeline.run))
        self._patch(pipeline, "plan_effect",
                    self._span(PLAN_EFFECT, pipeline.plan_effect,
                               marks_parent=True))
        self._patch(TimingModel, "late_bits",
                    self._span("timing.late_bits", TimingModel.late_bits))
        self._patch(campaign, "classify_outcome",
                    self._span("campaign.classify_outcome",
                               campaign.classify_outcome))
        self._patch(campaign.CampaignResult, "to_json",
                    self._span("campaign.to_json",
                               campaign.CampaignResult.to_json))
        self._patch(campaign, "golden_baseline",
                    self._span("campaign.golden_baseline",
                               campaign.golden_baseline))
        self._patch(machine, "run_golden",
                    self._span("machine.run_golden", machine.run_golden))
        self._patch(rat, "build_dynamic_rat",
                    self._span("rat.build_dynamic_rat",
                               rat.build_dynamic_rat))
        self._patch(rat, "verify_rat_empirically",
                    self._span(VERIFY, rat.verify_rat_empirically))
        self._patch(workloads, "workload_program",
                    self._span("workloads.workload_program",
                               workloads.workload_program))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _per_call_us(n: int, total: float) -> float:
    return total / n * 1e6 if n else 0.0


def _rate(n: int, seconds: float) -> float:
    return n / seconds if seconds else 0.0


def layer_metrics(tr: Tracer, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition: (exact counters, times).

    `counts` are the outcome's own counters (points, windows, probes, ISS
    steps, ...).
    """

    fork_n, fork_t, _ = tr.total("pipeline.fork")
    glitched_n, glitched_t, _ = tr.total("pipeline.clock.glitched")
    plan_n, plan_t, _ = tr.total(PLAN_EFFECT)
    late_n, late_t, _ = tr.total("timing.late_bits")
    run_n, run_t, _ = tr.total(RUN)
    clean_runs, clean_t, _ = tr.total(RUN, RUN_PIPELINE)
    cont_runs, cont_t = run_n - clean_runs, run_t - clean_t
    classify_n, _, classify_self = tr.total("campaign.classify_outcome")
    json_n, json_t, _ = tr.total("campaign.to_json")
    steps_t = tr.total("machine.run_golden")[1]
    advance_n, _, advance_self = tr.total("pipeline.clock.advance")
    verify_t = tr.total(VERIFY)[1]
    probe_t = (verify_t - tr.total(RUN_PIPELINE, VERIFY)[1]
               - tr.total("rat.build_dynamic_rat", VERIFY)[1])

    points = counts.get("points", 0)
    changed = counts.get("changed", 0)
    probes = counts.get("probes", 0)
    steps = counts.get("iss_steps", 0)
    exact = {
        "pipeline.fork.calls": fork_n,
        "pipeline.clock.glitched.calls": glitched_n,
        "glitch.plan_effect.calls": plan_n,
        "timing.late_bits.calls": late_n,
        "pipeline.run.calls": cont_runs,
        "pipeline.run.cycles": tr.cycles["continuation"],
        "campaign.points": points,
        "campaign.continuation_ratio": cont_runs / points if points else 0.0,
        "campaign.wasted_continuation_ratio":
            counts["changed_no_effect"] / changed if changed else 0.0,
        "campaign.classify_outcome.calls": classify_n,
        "campaign.to_json.calls": json_n,
        "machine.steps": steps,
        "pipeline.clean_cycles": tr.cycles["clean"],
        "pipeline.clock.advance.calls": advance_n,
        "rat.windows": counts.get("windows", 0),
        "rat.probes": probes,
    }
    times = {
        "pipeline.fork.us": _per_call_us(fork_n, fork_t),
        "pipeline.clock.glitched.us": _per_call_us(glitched_n, glitched_t),
        "glitch.plan_effect.us": _per_call_us(plan_n, plan_t),
        "timing.late_bits.us": _per_call_us(late_n, late_t),
        "pipeline.run.cycles_per_s": _rate(tr.cycles["continuation"], cont_t),
        "campaign.classify_outcome.self_s": classify_self,
        "campaign.to_json_s": json_t,
        "machine.steps_per_s": _rate(steps, steps_t),
        "pipeline.clean_cycles_per_s": _rate(tr.cycles["clean"], clean_t),
        "pipeline.clock.advance.self_s": advance_self,
        "campaign.golden_baseline_s": tr.total("campaign.golden_baseline")[1],
        "workloads.program_s": tr.total("workloads.workload_program")[1],
        "rat.build_dynamic_rat_s": tr.total("rat.build_dynamic_rat")[1],
        "rat.probes_per_s": _rate(probes, probe_t),
    }
    return exact, times
