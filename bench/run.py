"""Layered glitch-campaign benchmark: one workload per fresh interpreter.

    python3 bench/run.py --workload sweep_micro --seed 0 --seconds 15 --trace 0

Run from the root of the repository; glitchbench is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (tracing off); with --trace 1 the run alternates untraced
and traced repetitions and reports the per-layer metrics. Times are
corrected for the host's speed (hostspeed.py). See bench/README.md for the
workloads, the metrics and what each should move.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is measured in a fresh interpreter this many times after each
# repetition, so that the samples spread over the whole run
SETUP_PROBES_PER_REP = 2
# traced runs make at least this many traced repetitions, so that the
# exact counters can be compared between them
MIN_TRACED_REPS = 2

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "pipeline.fork.calls": "count",
    "pipeline.fork.us": "us",
    "pipeline.clock.glitched.calls": "count",
    "pipeline.clock.glitched.us": "us",
    "glitch.plan_effect.calls": "count",
    "glitch.plan_effect.us": "us",
    "timing.late_bits.calls": "count",
    "timing.late_bits.us": "us",
    "pipeline.run.calls": "count",
    "pipeline.run.cycles": "count",
    "pipeline.run.cycles_per_s": "1/s",
    "campaign.points": "count",
    "campaign.continuation_ratio": "ratio",
    "campaign.wasted_continuation_ratio": "ratio",
    "campaign.classify_outcome.calls": "count",
    "campaign.classify_outcome.self_s": "s",
    "campaign.to_json.calls": "count",
    "campaign.to_json_s": "s",
    "machine.steps": "count",
    "machine.steps_per_s": "1/s",
    "pipeline.clean_cycles": "count",
    "pipeline.clean_cycles_per_s": "1/s",
    "pipeline.clock.advance.calls": "count",
    "pipeline.clock.advance.self_s": "s",
    "campaign.golden_baseline_s": "s",
    "workloads.program_s": "s",
    "rat.build_dynamic_rat_s": "s",
    "rat.windows": "count",
    "rat.probes": "count",
    "rat.probes_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

# the usual name of each workload's op rate
OPS_ALIAS = {"sweep_micro": "points_per_s", "sweep_bnn": "points_per_s",
             "rat_verify": "windows_per_s", "lockstep": "stimuli_per_s"}


def _import_bench():
    """(suite, tracer) modules, or None unless glitchbench comes from ./src."""

    sys.path.insert(0, SRC)  # this script's own directory is already on it
    try:
        import glitchbench
    except ImportError:
        return None
    if os.path.dirname(os.path.abspath(glitchbench.__file__)) != \
            os.path.join(SRC, "glitchbench"):
        return None
    import suite
    import tracer
    return suite, tracer


class Gate:
    """Correctness of every repetition, the oracle sample, and the checks
    that repetitions agree: outputs byte for byte, counters exactly."""

    def __init__(self, wl, rng):
        self.wl = wl
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.counts = []
        self.sample = None
        self.sample_state = None
        self.problems = []

    def add(self, state, out) -> None:
        attempted, failed = self.wl.check(state, out)
        self.attempted += attempted
        self.failed += failed
        self.digests.add(out.digest)
        self.counts.append(self.wl.counts(out))
        if self.sample is None:
            self.sample = self.wl.sample(state, out, self.rng)
            self.sample_state = state

    def finish(self) -> None:
        attempted, failed = self.wl.oracle(self.sample_state, self.sample)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} oracle points "
                                 "disagree with the plain path")
        if len(self.digests) != 1:
            self.problems.append("outputs differ between repetitions")
        if any(c != self.counts[0] for c in self.counts):
            self.problems.append("outcome counters differ between "
                                 "repetitions")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _more(spent: float, last: float, seconds: float) -> bool:
    # stop when one more repetition would end nearer past the budget
    # than the current total falls short of it
    return spent + last / 2 < seconds


def timed_body(wl, state, speed, walls):
    """One body pass: (reference seconds, ops, outcome). Appends the pass's
    wall time to `walls`, which decides when a run has measured enough."""

    w0 = time.perf_counter()
    since = speed.totals
    cpu, ops, out = wl.body(state)
    walls.append(time.perf_counter() - w0)
    return cpu * speed.factor(since), ops, out


def measure(wl, state, args, gate, speed, setup_s) -> dict:
    reps, walls = [], []
    setups = [setup_s]
    while True:
        elapsed, ops, out = timed_body(wl, state, speed, walls)
        reps.append(elapsed)
        gate.add(state, out)
        del out  # so that the next pass does not hold two outcomes
        setups += [_setup_probe(args) for _ in range(SETUP_PROBES_PER_REP)]
        if not _more(sum(walls), walls[-1], args.seconds):
            break
    return {"ops_per_s": ops / statistics.median(reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "_reps": len(reps)}


def measure_traced(wl, state, args, gate, tracer, speed) -> dict:
    untraced, traced, walls = [], [], []
    exact_reps, time_reps = [], []

    def plain():
        elapsed, _ops, out = timed_body(wl, state, speed, walls)
        untraced.append(elapsed)
        gate.add(state, out)

    def traced_rep():
        # set-up is traced too, for the per-layer set-up metrics
        tr = tracer.Tracer()
        tr.install()
        try:
            t_state = wl.setup(args.seed)
            elapsed, _ops, out = timed_body(wl, t_state, speed, walls)
        finally:
            tr.uninstall()
        traced.append(elapsed)
        gate.add(t_state, out)
        exact, layer_times = tracer.layer_metrics(tr, wl.counts(out))
        exact_reps.append(exact)
        time_reps.append(layer_times)

    plain()
    for _ in range(MIN_TRACED_REPS):
        traced_rep()
    while _more(sum(walls), walls[-1], args.seconds):
        plain()
        traced_rep()
    if any(e != exact_reps[0] for e in exact_reps):
        gate.problems.append("traced counters differ between repetitions")
    metrics = dict(exact_reps[0])
    for name in time_reps[0]:
        metrics[name] = statistics.median(t[name] for t in time_reps)
    metrics["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(untraced)
    metrics["_reps"] = len(traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # set-up is timed from here: glitchbench is not imported yet
    cpu0 = time.thread_time()
    speed = HostSpeed()
    try:
        return run(args, cpu0, speed)
    finally:
        speed.close()


def run(args, cpu0, speed) -> int:
    modules = _import_bench()
    if modules is None:
        print(f"bench: glitchbench sources not found under {SRC}",
              file=sys.stderr)
        return 2
    suite, tracer = modules
    wl = suite.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2

    state = wl.setup(args.seed)
    setup_s = (time.thread_time() - cpu0) * speed.factor((0, 0.0))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gate = Gate(wl, random.Random(args.seed))
    if args.trace:
        values = measure_traced(wl, state, args, gate, tracer, speed)
        units = PER_LAYER
    else:
        values = measure(wl, state, args, gate, speed, setup_s)
        units = END_TO_END
    gate.finish()

    reps = values.pop("_reps")
    print(f"# {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{reps} repetitions  op = {wl.op}  host speed "
          f"{speed.factor((0, 0.0)):.3f} x reference")
    for name, unit in units.items():
        alias = f"  ({OPS_ALIAS[wl.name]})" if name == "ops_per_s" else ""
        print(f"{name:36s} {values[name]:>16.6g} {unit}{alias}")
    ratio = gate.failed / gate.attempted if gate.attempted else 0.0
    print(f"{'failed_ops_ratio':36s} {ratio:>16.6g} "
          f"({gate.failed}/{gate.attempted})")
    for problem in gate.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
