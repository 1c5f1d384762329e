"""The four benchmark workloads: set-up, timed body and correctness gate.

Each workload is one class with the same five steps:

  setup(seed)             build the inputs; this is what `setup_s` times
  body(state)             run the timed work once: (host seconds, ops, outcome)
  check(state, outcome)   compare one outcome with the frozen fixtures:
                          (ops attempted, ops failed)
  sample(state, outcome, rng) / oracle(state, sample)
                          re-derive a seeded sample through the plain path,
                          outside the timed body: (attempted, failed)

`counts(outcome)` gives the exact counters the outcome carries. Every call
into glitchbench goes through a module attribute, so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from glitchbench import campaign, machine, pipeline, rat, workloads
from glitchbench.glitch import GlitchSpec
from glitchbench.timing import reference_timing

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

# the C7 offset grid, 1.0:9.82:0.07 ns = 127 offsets
OFFSETS = (1.0, 9.82, 0.07)
N_STIMULI = 32
BOUNDARY_TOL_NS = 0.01  # the C4 tolerance


def load_expected() -> dict:
    with open(os.path.join(EXPECTED_DIR, "expected.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def read_digests(name: str) -> list[str]:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return fh.read().split()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record: campaign.OutcomeRecord) -> str:
    return sha256(json.dumps(record.to_dict(), sort_keys=True))[:16]


# ---------------------------------------------------------------------------
# campaign sweeps


@dataclass
class SweepState:
    plan: campaign.CampaignPlan
    golden: campaign.GoldenBaseline
    expected: dict          # golden_cycles, report_sha256, first_digest
    digests: list[str] | None = None  # loaded only when a report differs


@dataclass
class SweepOutcome:
    records: list
    digest: str             # sha256 of the report JSON


class _Sweep:
    op = "grid point"
    digest_file = ""
    # oracle sample: points that needed a continuation, then any points
    sample_changed = 0
    sample_any = 0

    def _build(self, program, cycles, label, expected) -> SweepState:
        plan, golden = campaign.build_plan(
            program, reference_timing(), cycles=cycles, offsets=OFFSETS,
            label=label)
        return SweepState(plan, golden, expected)

    def body(self, st: SweepState):
        t0 = time.thread_time()
        result = campaign.run_campaign(st.plan, st.golden)
        text = result.to_json()
        elapsed = time.thread_time() - t0
        return elapsed, len(result.records), SweepOutcome(result.records,
                                                          sha256(text))

    def check(self, st: SweepState, out: SweepOutcome) -> tuple[int, int]:
        n = len(out.records)
        exp = st.expected
        if st.golden.cycles != exp["golden_cycles"] or n != st.plan.points:
            return n, n
        if out.digest == exp["report_sha256"]:
            return n, 0
        if st.digests is None:
            every = read_digests(self.digest_file)
            lo = exp["first_digest"]
            st.digests = every[lo:lo + st.plan.points]
        bad = sum(record_digest(r) != d
                  for r, d in zip(out.records, st.digests))
        # a report can differ outside its records (summary, header)
        return n, max(bad, 1)

    def sample(self, st: SweepState, out: SweepOutcome, rng) -> list:
        changed = [r for r in out.records if r.root_cause]
        rest = [r for r in out.records if not r.root_cause]
        picked = rng.sample(changed, min(self.sample_changed, len(changed)))
        picked += rng.sample(rest, min(self.sample_any, len(rest)))
        return sorted(picked, key=lambda r: r.index)

    def oracle(self, st: SweepState, sample: list) -> tuple[int, int]:
        """Re-run each sampled point from reset with the glitch scheduled,
        classify it, and require the campaign's record exactly."""

        failed = sum(_plain_record(st.plan, st.golden, r) != r
                     for r in sample)
        return len(sample), failed

    def counts(self, out: SweepOutcome) -> dict:
        changed = [r for r in out.records if r.root_cause]
        wasted = sum(1 for r in changed
                     if r.outcome == r.effect == campaign.NO_EFFECT)
        return {"points": len(out.records), "changed": len(changed),
                "changed_no_effect": wasted}


def _plain_record(plan, golden, r) -> campaign.OutcomeRecord:
    spec = GlitchSpec(r.cycle, r.offset_ns, plan.policy, plan.illegal_policy)
    run = pipeline.run_pipeline(plan.program, timing=plan.timing,
                                glitches=[spec],
                                max_cycles=golden.cycles * plan.hang_factor)
    arch = run.arch
    pcs = tuple(run.retire_pcs())
    output = tuple(arch.output_log)
    mechanisms = tuple(sorted({m.kind for m in run.mechanisms}))
    outcome, effect, misclassified = campaign.classify_outcome(
        golden, status=run.status, pcs=pcs, output=output,
        regs=tuple(arch.regs),
        mem=tuple(sorted((a, v) for a, v in arch.mem.items() if v)),
        halt_cause=arch.halt_cause, exit_code=arch.exit_code,
        mechanisms=mechanisms)
    changed = [e for e in run.corruptions if e.changed]
    divergence = None
    if effect != campaign.NO_EFFECT or outcome != campaign.NO_EFFECT:
        divergence = campaign.first_divergence(golden.pcs, pcs, changed)
    root = changed[0] if changed else None
    return campaign.OutcomeRecord(
        r.index, r.cycle, r.offset_idx, r.offset_ns, outcome, effect,
        mechanisms, tuple(dict.fromkeys(f"{e.latch}.{e.field}"
                                        for e in changed)),
        f"{root.latch}.{root.field}" if root else "",
        (root.iclass or "") if root else "",
        root.pc if root else None, misclassified, run.cycles,
        arch.halt_cause, arch.exit_code, output, divergence)


class SweepMicro(_Sweep):
    """The C7 grid: mb_alu_imm, every cycle x 127 offsets, 10,033 points."""

    name = "sweep_micro"
    digest_file = "sweep_micro.digests"
    sample_changed = 16
    sample_any = 8
    program = "mb_alu_imm"

    def setup(self, seed: int) -> SweepState:
        return self.build(load_expected()["sweep_micro"])

    def build(self, expected: dict) -> SweepState:
        return self._build(workloads.workload_program(self.program), None,
                           self.program, expected)


class SweepBnn(_Sweep):
    """One bnn cycle x 127 offsets for the stimulus the seed picks.

    The cycle is the same program point for every stimulus (frozen in
    expected.json, cycle 1600 for stimulus 0), so every seed does the same
    amount of continuation work; a raw cycle number would land on a
    different instruction per stimulus and vary the cost by up to 40%.
    """

    name = "sweep_bnn"
    digest_file = "sweep_bnn.digests"
    sample_changed = 2
    sample_any = 1

    def setup(self, seed: int) -> SweepState:
        stimulus = seed % N_STIMULI
        exp = load_expected()["sweep_bnn"]["stimuli"][stimulus]
        return self.build(stimulus, exp["cycle"], exp)

    def build(self, stimulus: int, cycle: int, expected: dict) -> SweepState:
        program = workloads.workload_program("bnn", input_index=stimulus)
        return self._build(program, (cycle, cycle + 1), f"bnn[{stimulus}]",
                           expected)


# ---------------------------------------------------------------------------
# RAT verification


@dataclass
class RatState:
    timing: object
    programs: list          # (name, Program) for the nine microbenches
    expected: dict          # windows, probes, report_sha256
    digests: list[str] | None = None  # loaded only when an outcome differs


@dataclass
class RatOutcome:
    checks: list            # per program, list[WindowCheck]
    digest: str             # sha256 of every check's repr


def window_digest(check: rat.WindowCheck) -> str:
    return sha256(repr(check))[:16]


class RatVerify:
    """verify_rat_empirically on the nine mb_* programs: 684 windows."""

    name = "rat_verify"
    op = "window"
    digest_file = "rat_verify.digests"

    def setup(self, seed: int) -> RatState:
        return self.build(load_expected()["rat_verify"])

    def build(self, expected: dict) -> RatState:
        programs = [(name, workloads.workload_program(name))
                    for name in workloads.workload_names()
                    if name.startswith("mb_")]
        return RatState(reference_timing(), programs, expected)

    def body(self, st: RatState):
        t0 = time.thread_time()
        checks = [rat.verify_rat_empirically(prog, st.timing,
                                             max_cycles=100_000)
                  for _name, prog in st.programs]
        elapsed = time.thread_time() - t0
        digest = sha256(repr(checks))
        return elapsed, sum(map(len, checks)), RatOutcome(checks, digest)

    def check(self, st: RatState, out: RatOutcome) -> tuple[int, int]:
        """A window fails the C4 check, or differs from its frozen digest
        (which covers its boundaries and its probe count)."""

        flat = [c for per in out.checks for c in per]
        n = len(flat)
        if n != st.expected["windows"]:
            return n, n
        bad = {i for i, c in enumerate(flat)
               if not (c.selective and c.lo_error <= BOUNDARY_TOL_NS
                       and c.hi_error <= BOUNDARY_TOL_NS)}
        if out.digest == st.expected["report_sha256"]:
            return n, len(bad)
        if st.digests is None:
            st.digests = read_digests(self.digest_file)
        bad.update(i for i, (c, d) in enumerate(zip(flat, st.digests))
                   if window_digest(c) != d)
        return n, max(len(bad), 1)

    def sample(self, st: RatState, out: RatOutcome, rng) -> list:
        i = rng.randrange(len(out.checks))
        return [(i, rng.choice(out.checks[i]))]

    def oracle(self, st: RatState, sample: list) -> tuple[int, int]:
        """Probe each sampled window again with from-reset runs (the
        verifier's own slow path) and require the identical check. A probe
        only needs to reach the glitched cycle, so runs stop there."""

        failed = 0
        for i, c in sample:
            again = rat.verify_rat_empirically(
                st.programs[i][1], st.timing, [c.window],
                max_cycles=c.window.cycle + 1, full_runs=True)
            failed += again != [c]
        return len(sample), failed

    def counts(self, out: RatOutcome) -> dict:
        flat = [c for per in out.checks for c in per]
        return {"windows": len(flat), "probes": sum(c.probes for c in flat)}


# ---------------------------------------------------------------------------
# ISS / pipeline lockstep


@dataclass
class LockstepState:
    programs: list          # Program per bnn stimulus
    winners: list           # host reference class per stimulus


@dataclass
class LockstepOutcome:
    agree: list             # per stimulus: ISS, pipeline and host agree
    steps: int
    digest: str


class Lockstep:
    """run_golden (the ISS) and a clean run_pipeline on all 32 stimuli."""

    name = "lockstep"
    op = "stimulus"

    def setup(self, seed: int) -> LockstepState:
        programs = [workloads.workload_program("bnn", input_index=i)
                    for i in range(N_STIMULI)]
        model = workloads.make_bnn_model()
        winners = [workloads.reference_bnn_forward(model, x).winner
                   for x in model.inputs]
        return LockstepState(programs, winners)

    def body(self, st: LockstepState):
        elapsed = 0.0
        agree = []
        steps = 0
        h = hashlib.sha256()
        for prog, winner in zip(st.programs, st.winners):
            t0 = time.thread_time()
            gold = machine.run_golden(prog)
            run = pipeline.run_pipeline(prog)
            elapsed += time.thread_time() - t0
            pcs = run.retire_pcs()
            agree.append(gold.status == run.status == "HALTED"
                         and [e.pc for e in gold.events] == pcs
                         and run.arch.same_arch(gold.state)
                         and gold.state.output_log == [winner])
            steps += gold.steps
            h.update(repr((len(pcs), run.cycles, run.arch.regs,
                           run.arch.output_log)).encode())
        return elapsed, len(agree), LockstepOutcome(agree, steps,
                                                    h.hexdigest())

    def check(self, st: LockstepState, out: LockstepOutcome):
        return len(out.agree), out.agree.count(False)

    def sample(self, st, out, rng) -> list:
        return []  # the ISS is already the oracle of every stimulus

    def oracle(self, st, sample) -> tuple[int, int]:
        return 0, 0

    def counts(self, out: LockstepOutcome) -> dict:
        return {"stimuli": len(out.agree), "iss_steps": out.steps}


WORKLOADS = {w.name: w for w in (SweepMicro(), SweepBnn(), RatVerify(),
                                 Lockstep())}
