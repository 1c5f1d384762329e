"""Sweep engine: grid bookkeeping, classification, and determinism."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glitchbench import campaign
from glitchbench.asm import assemble
from glitchbench.campaign import (
    CONTROL_FLOW_DEVIATION, CSV_HEADER, HANG, MAX_OFFSETS, NO_EFFECT,
    SDC_OUTPUT, TRAP, CampaignPlan, build_plan, classify_outcome,
    first_divergence, from_reset_record, golden_baseline, offset_grid,
    run_campaign,
)
from glitchbench.glitch import CorruptionPolicy, IllegalPolicy
from glitchbench.machine import TRAP_CAUSES
from glitchbench.pipeline import Pipeline
from glitchbench.timing import reference_timing
from glitchbench.workloads import workload_names, workload_program

TIMING = reference_timing()
PROG = workload_program("mb_alu_imm")
# bnn stimulus 0, cycle 1600: offsets up to 4.99 ns change a latch. 1.0 ns
# reaches a post-glitch state of its own, 1.07-4.99 ns all reach one other.
BNN_OFFSETS = (1.0, 9.82, 0.98)
MB_NAMES = [name for name in workload_names() if name.startswith("mb_")]
POLICY_PAIRS = [(p, i) for i in IllegalPolicy for p in CorruptionPolicy]


@pytest.fixture(scope="module")
def swept():
    plan, golden = build_plan(PROG, TIMING, offsets=(1.0, 9.5, 0.5),
                              label="mb_alu_imm")
    return plan, golden, run_campaign(plan, golden)


def test_jobs_run_on_at_most_one_process_per_cpu(monkeypatch):
    # a fake Pool records its size and runs the blocks serially, so no
    # process starts
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, blocks):
            return [func(*block) for block in blocks]

    plan, golden = build_plan(workload_program("mb_system"), TIMING,
                              cycles=(0, 12), offsets=(1.0, 9.5, 0.5))
    solo = run_campaign(plan, golden, jobs=1).to_json()
    monkeypatch.setattr(campaign.multiprocessing, "Pool", SerialPool)
    for cpus, jobs in ((3, 8), (3, 5000), (None, 5)):
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: cpus)
        assert run_campaign(plan, golden, jobs=jobs).to_json() == solo
    assert sizes == [3, 3, 1]


def test_offset_grid_fenceposts():
    assert offset_grid(1.0, 9.5, 0.5) == (1.0, 0.5, 18)
    assert offset_grid(1.0, 9.4, 0.5) == (1.0, 0.5, 17)  # 9.5 overshoots
    assert offset_grid(2.0, 2.0, 0.5) == (2.0, 0.5, 1)
    with pytest.raises(ValueError):
        offset_grid(1.0, 9.0, 0)
    with pytest.raises(ValueError):
        offset_grid(3.0, 1.0, 0.5)
    for bad in ((1.0, float("inf"), 0.5), (1.0, float("nan"), 0.5),
                (float("-inf"), 9.0, 0.5), (1.0, 9.0, float("inf")),
                (1.0, 9.0, float("nan"))):
        with pytest.raises(ValueError, match="must be finite"):
            offset_grid(*bad)
    # the cap is checked before the count is built: 1e-300 asks for ~8e300
    # offsets, and 5e-324 makes the span infinite
    for step in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"more than {MAX_OFFSETS}"):
            offset_grid(1.0, 9.0, step)
    assert offset_grid(1.0, 9.82, 0.07)[2] == 127  # the C7 grid
    assert offset_grid(0.0, MAX_OFFSETS - 1.0, 1.0)[2] == MAX_OFFSETS
    with pytest.raises(ValueError, match="more than"):
        offset_grid(0.0, float(MAX_OFFSETS), 1.0)


def test_build_plan_defaults_and_validation():
    plan, golden = build_plan(PROG, TIMING)
    assert (plan.cycle_lo, plan.cycle_hi) == (0, golden.cycles)
    assert plan.offset_lo == TIMING.min_glitch_ns
    with pytest.raises(ValueError):
        build_plan(PROG, TIMING, offsets=(0.5, 9.0, 0.5))  # below o_min
    with pytest.raises(ValueError):
        build_plan(PROG, TIMING, offsets=(1.0, 10.0, 0.5))  # reaches period
    with pytest.raises(ValueError):
        build_plan(PROG, TIMING, cycles=(5, 5))
    # a glitch at or past the end of the golden run never fires
    build_plan(PROG, TIMING, cycles=(0, golden.cycles))
    with pytest.raises(ValueError, match="bad cycle range"):
        build_plan(PROG, TIMING, cycles=(0, golden.cycles + 1))


def test_grid_covers_every_point_once(swept):
    plan, _, res = swept
    assert len(res.records) == plan.points
    assert [r.index for r in res.records] == list(range(plan.points))
    for r in res.records[:64]:
        assert r.offset_ns == plan.offset_lo + r.offset_idx * plan.offset_step
        assert plan.cycle_lo <= r.cycle < plan.cycle_hi


def test_safe_offsets_never_disturb_anything(swept):
    plan, golden, res = swept
    # 9.0 and 9.5 clear every threshold (max is 8.6 + 0.2)
    safe = [r for r in res.records if r.offset_ns >= 9.0]
    assert len(safe) == 2 * (plan.cycle_hi - plan.cycle_lo)
    assert all(r.outcome == NO_EFFECT for r in safe)
    assert all(r.root_cause == "" and r.divergence is None for r in safe)
    assert all(r.output == golden.output for r in safe)


def test_sampled_records_match_unforked_full_runs():
    """The rolling-baseline fork, the skipped clean continuation and the
    post-glitch memo must be invisible: under every policy pair, every
    sampled record equals the one a from-reset run with the same glitch
    produces."""

    for policy, illegal_policy in POLICY_PAIRS:
        plan, golden = build_plan(PROG, TIMING, offsets=(1.0, 9.5, 0.5),
                                  policy=policy,
                                  illegal_policy=illegal_policy)
        res = run_campaign(plan, golden)
        changed = [r for r in res.records if r.root_cause]
        assert changed
        for rec in res.records[7::97] + changed[::max(1, len(changed) // 16)]:
            assert from_reset_record(plan, golden, rec.cycle,
                                     rec.offset_idx)[0] == rec, \
                (policy, illegal_policy)


def test_memo_reuses_continuations_on_bnn(monkeypatch):
    """bnn stimulus 0, cycle 1600: many offsets reach one post-glitch
    state, one reaches another. Records match the from-reset oracle while
    fewer continuations run than there are changed points."""

    prog = workload_program("bnn", input_index=0)
    plan, golden = build_plan(prog, TIMING, cycles=(1600, 1601),
                              offsets=BNN_OFFSETS, label="bnn")
    runs = []
    plain_run = Pipeline.run

    def counting_run(self, max_cycles):
        runs.append(self.cycle)
        return plain_run(self, max_cycles)

    monkeypatch.setattr(Pipeline, "run", counting_run)
    res = run_campaign(plan, golden)
    monkeypatch.undo()

    changed = [r for r in res.records if r.root_cause]
    assert len(runs) == 2 < len(changed)
    assert len({r.outcome for r in changed}) == 2
    for rec in res.records:
        assert from_reset_record(plan, golden, rec.cycle,
                                 rec.offset_idx)[0] == rec


def test_mechanisms_after_the_glitched_cycle_reach_the_record():
    """mb_muldiv, cycle 44: the zeroed word is fetched while a divide
    enters EX and is only decoded (and NOP-replaced) 31 cycles later, so
    the mechanism comes from the stored continuation."""

    plan, golden = build_plan(workload_program("mb_muldiv"), TIMING,
                              cycles=(44, 45), offsets=(1.0, 9.82, 0.07),
                              policy=CorruptionPolicy.ZERO_LATE_BITS)
    res = run_campaign(plan, golden)
    assert "NOP_REPLACEMENT" in res.records[75].mechanisms
    for rec in res.records:
        assert from_reset_record(plan, golden, rec.cycle,
                                 rec.offset_idx)[0] == rec


@pytest.mark.parametrize(
    "name, policy, illegal_policy",
    [(name, *POLICY_PAIRS[i % len(POLICY_PAIRS)])
     for i, name in enumerate(MB_NAMES)])
def test_memo_free_campaign_gives_the_same_report(name, policy,
                                                  illegal_policy,
                                                  monkeypatch):
    """Dense grids make many offsets of one cycle meet in the memo, and
    mb_system reaches equal states at different cycles. With every key
    unique (no memo) the report must not change by a byte."""

    plan, golden = build_plan(workload_program(name), TIMING, cycles=(0, 10),
                              offsets=(1.0, 9.82, 0.14), policy=policy,
                              illegal_policy=illegal_policy, label=name)
    report = run_campaign(plan, golden).to_json()
    monkeypatch.setattr(Pipeline, "state_key", lambda self: object())
    assert run_campaign(plan, golden).to_json() == report


_GOLDEN = {name: golden_baseline(workload_program(name)) for name in MB_NAMES}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(MB_NAMES), data=st.data(),
       policy=st.sampled_from(list(CorruptionPolicy)),
       illegal_policy=st.sampled_from(list(IllegalPolicy)))
def test_campaign_matches_from_reset_runs(name, data, policy,
                                          illegal_policy):
    """Differential fuzz: a small random grid, campaign vs plain path.
    Offsets stride across the period so that different corruptions of
    one cycle meet in the memo."""

    golden = _GOLDEN[name]
    # every glitched cycle comes before the glitch-free halt
    width = data.draw(st.integers(1, 2), label="cycles")
    cycle = data.draw(st.integers(0, golden.cycles - width), label="cycle")
    stride = data.draw(st.integers(1, 16), label="offset stride")
    lo = data.draw(st.integers(0, 126), label="offset index")
    count = data.draw(st.integers(1, min(12, 126 // stride + 1,
                                         (126 - lo) // stride + 1)),
                      label="offsets")
    plan = CampaignPlan(workload_program(name), TIMING, cycle, cycle + width,
                        1.0 + lo * 0.07, stride * 0.07, count, policy,
                        illegal_policy, label=name)
    for rec in run_campaign(plan, golden).records:
        assert from_reset_record(plan, golden, rec.cycle,
                                 rec.offset_idx)[0] == rec


# the golden run decodes an illegal word and traps on it
ILLEGAL_WORD_SRC = """
    addi x1, x0, 1
    addi x2, x0, 2
    .word 0xFFFFFFFF
    ebreak
"""


@pytest.mark.parametrize("illegal_policy", list(IllegalPolicy))
def test_glitch_that_changes_no_latch_keeps_the_run_glitch_free(
        illegal_policy):
    """A glitch whose late bits all happen to match leaves the run exactly
    glitch-free: the golden run's own illegal word still traps under
    NOP_REPLACE. The campaign skips such points as NO_EFFECT, and the
    from-reset run must agree on every point of the grid."""

    plan, golden = build_plan(assemble(ILLEGAL_WORD_SRC), TIMING,
                              illegal_policy=illegal_policy)
    assert golden.halt_cause == "ILLEGAL"
    records = run_campaign(plan, golden).records
    assert len(records) == plan.points
    safe = [r for r in records if r.offset_ns == 9.5]
    assert [r.cycle for r in safe] == list(plan.cycles)
    assert all(r.outcome == NO_EFFECT for r in safe)
    for rec in records:
        assert from_reset_record(plan, golden, rec.cycle,
                                 rec.offset_idx)[0] == rec


def test_worker_split_is_byte_identical(swept):
    plan, golden, res = swept
    for jobs in (2, 5):
        again = run_campaign(plan, golden, jobs=jobs)
        assert again.to_json() == res.to_json()
        assert again.to_csv() == res.to_csv()


@pytest.mark.parametrize("jobs", [1, 2])
def test_hand_built_plan_past_the_golden_run_is_rejected(jobs):
    """A grid cycle at or past the end of the glitch-free run has no
    pipeline to glitch (mb_system halts after 24 cycles)."""

    prog = workload_program("mb_system")
    golden = golden_baseline(prog)
    assert golden.cycles == 24
    for lo, hi in ((23, 25), (24, 25), (30, 31)):
        plan = CampaignPlan(prog, TIMING, lo, hi, 3.0, 1.0, 4)
        with pytest.raises(ValueError, match="halted"):
            run_campaign(plan, golden, jobs=jobs)


def test_hang_records_exhaust_the_budget(swept):
    plan, golden, res = swept
    hangs = [r for r in res.records if r.outcome == HANG]
    assert hangs, "expected at least one hang in a deep-offset sweep"
    assert all(r.cycles == golden.cycles * plan.hang_factor for r in hangs)
    assert all(r.halt_cause is None for r in hangs)


def test_trap_records_carry_a_trap_cause(swept):
    _, golden, res = swept
    traps = [r for r in res.records if r.outcome == TRAP]
    assert traps
    for r in traps:
        assert r.halt_cause in TRAP_CAUSES
        assert r.halt_cause != golden.halt_cause


def test_divergent_records_explain_themselves(swept):
    _, golden, res = swept
    divergent = [r for r in res.records if r.effect != NO_EFFECT]
    assert divergent
    for r in divergent[:200]:
        assert r.root_cause and r.corrupted
        assert r.root_cause == r.corrupted[0]
        d = r.divergence
        assert d["seed"]["latch"] == r.root_cause.split(".")[0]
        slots = [m["slot"] for m in d["retire_mismatches"]]
        assert len(slots) <= 16 and slots == sorted(slots)
        if r.effect == CONTROL_FLOW_DEVIATION:
            assert slots, "pc-stream divergence must name a slot"


def test_headline_priority_ladder():
    golden = golden_baseline(PROG)
    base = dict(pcs=golden.pcs, output=golden.output, regs=golden.regs,
                mem=golden.mem, halt_cause=golden.halt_cause,
                exit_code=golden.exit_code, mechanisms=())
    assert classify_outcome(golden, status="HALTED", **base) == \
        (NO_EFFECT, NO_EFFECT, False)
    # hang wins over everything else
    out, _, _ = classify_outcome(golden, **{**base, "status": "NOT_HALTED"})
    assert out == HANG
    # a trap cause outranks mechanisms
    out, _, _ = classify_outcome(golden, **{
        **base, "status": "HALTED", "halt_cause": "ILLEGAL",
        "mechanisms": ("NOP_REPLACEMENT",)})
    assert out == TRAP
    # mechanisms only headline an actual divergence
    out, eff, _ = classify_outcome(golden, **{
        **base, "status": "HALTED", "mechanisms": ("MUTATED_INSTRUCTION",)})
    assert (out, eff) == (NO_EFFECT, NO_EFFECT)
    out, eff, mis = classify_outcome(golden, **{
        **base, "status": "HALTED", "output": (99,),
        "mechanisms": ("GHOST_INSTRUCTION", "NOP_REPLACEMENT")})
    assert out == "NOP_REPLACEMENT" and eff == SDC_OUTPUT and mis


def test_first_divergence_limits_and_padding():
    d = first_divergence((0, 4, 8), (0, 4), [])
    assert d["seed"] is None
    assert d["retire_mismatches"] == [
        {"slot": 2, "golden_pc": 8, "faulty_pc": None}]
    long = first_divergence(tuple(range(0, 400, 4)),
                            tuple(range(2, 402, 4)), [])
    assert len(long["retire_mismatches"]) == 16


def test_report_and_csv_shape(swept):
    plan, golden, res = swept
    rep = json.loads(res.to_json())
    assert rep["grid"]["points"] == plan.points
    assert rep["golden"]["cycles"] == golden.cycles
    assert sum(rep["summary"]["outcomes"].values()) == plan.points
    assert len(rep["records"]) == plan.points
    rooted = sum(1 for r in res.records if r.root_cause)
    assert sum(sum(v.values()) for v in
               rep["summary"]["by_stage_class"].values()) == rooted
    for key in rep["summary"]["by_pc"]:
        assert key.startswith("0x")
    lines = res.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == plan.points + 1
    assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)


def _json_dumps_report(result) -> str:
    """The report through json.dumps: the oracle of the report writer."""

    doc = {**result.header(),
           "records": [r.to_dict() for r in result.records]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _hand_built_record(index, offset_ns, **fields):
    base = dict(index=index, cycle=3, offset_idx=index, offset_ns=offset_ns,
                outcome=NO_EFFECT, effect=NO_EFFECT, mechanisms=(),
                corrupted=(), root_cause="", root_iclass="", root_pc=None,
                misclassified=False, cycles=24, halt_cause=None,
                exit_code=None, output=(), divergence=None)
    return campaign.OutcomeRecord(**{**base, **fields})


# a label with JSON's escapes, a non-ASCII and a non-BMP character
ODD_LABEL = 'q"uote\\back\nline \u00e9 \U0001f600'

HAND_BUILT_RECORDS = [
    _hand_built_record(0, 1.0),
    _hand_built_record(
        1, 0.1 + 0.2, outcome=HANG, effect=CONTROL_FLOW_DEVIATION,
        mechanisms=("NOP_REPLACEMENT",),
        corrupted=("IF_ID.instr", "ID_EX.rs1_val"), root_cause="IF_ID.instr",
        root_iclass="ALU_IMM", misclassified=True, cycles=96,
        output=(0, 2**32 - 1, -7),
        divergence={"seed": None, "retire_mismatches": [
            {"slot": 0, "golden_pc": 4, "faulty_pc": None},
            {"slot": 1, "golden_pc": None, "faulty_pc": 8}]}),
    _hand_built_record(2, 1e-300, outcome=TRAP, effect=SDC_OUTPUT,
                       corrupted=("EX_WB.result",), root_cause="EX_WB.result",
                       root_pc=0x1c, halt_cause="ILLEGAL", exit_code=3,
                       divergence={"seed": {"cycle": 3, "latch": "EX_WB",
                                            "field": "result", "pc": None},
                                   "retire_mismatches": []}),
    _hand_built_record(3, float("nan")),
    _hand_built_record(4, float("inf")),
    _hand_built_record(5, -float("inf"), corrupted=("ID_EX.imm",),
                       root_cause="ID_EX.imm", root_iclass=ODD_LABEL),
]


@pytest.mark.parametrize("records", [[], HAND_BUILT_RECORDS],
                         ids=["no_records", "records"])
def test_report_writer_matches_json_dumps_on_hand_built_results(records):
    """Shapes a campaign cannot reach: escapes and non-ASCII text, no
    records, a divergence without a seed and with missing pcs, None
    root_pc/exit_code/halt_cause, empty output and mechanisms, and the
    float spellings NaN and Infinity."""

    prog = workload_program("mb_system")
    plan = CampaignPlan(prog, TIMING, 3, 4, 1.0, 0.1, 6, label=ODD_LABEL)
    golden = dataclasses.replace(golden_baseline(prog), halt_cause=None,
                                 exit_code=None, output=())
    result = campaign.CampaignResult(plan, golden, list(records))
    assert result.to_json() == _json_dumps_report(result)


@pytest.mark.parametrize("policy, illegal_policy", POLICY_PAIRS)
def test_report_writer_matches_json_dumps_on_mb_system(policy,
                                                       illegal_policy):
    plan, golden = build_plan(workload_program("mb_system"), TIMING,
                              policy=policy, illegal_policy=illegal_policy,
                              label="mb_system")
    result = run_campaign(plan, golden)
    pieces = list(result.iter_json())
    assert "".join(pieces) == result.to_json() == _json_dumps_report(result)
    # each record is a piece of its own
    per_piece = [p.count('"index": ') for p in pieces if '"index": ' in p]
    assert per_piece == [1] * plan.points


def test_policy_changes_the_mix():
    plan_z, golden = build_plan(PROG, TIMING, cycles=(2, 32),
                                offsets=(2.0, 8.0, 1.0),
                                policy=CorruptionPolicy.ZERO_LATE_BITS,
                                illegal_policy=IllegalPolicy.TRAP)
    res_z = run_campaign(plan_z, golden)
    # zeroed instruction words decode as illegal, and the TRAP policy
    # turns those into architected traps
    assert any(r.outcome == TRAP for r in res_z.records)
    assert all("NOP_REPLACEMENT" not in r.mechanisms for r in res_z.records)


def _bench_tracer():
    """bench/tracer.py loaded by file path, as the benchmark loads it."""

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_sees_one_plan_per_glitched_clock_per_point():
    # cycle 0 captures reset bubbles only, so nothing there is corruptible
    plan, golden = build_plan(workload_program("mb_system"), TIMING,
                              cycles=(0, 6), offsets=(1.0, 9.5, 0.5))
    tracer = _bench_tracer()
    tr = tracer.Tracer()
    tr.install()
    try:
        result = run_campaign(plan, golden)
    finally:
        tr.uninstall()
    points = len(result.records)
    assert points == 6 * plan.offset_count
    assert tr.total(tracer.PLAN_EFFECT)[0] == points
    # the glitched edge is applied outside clock(): the tracer files the
    # glitched cycle of each point that changed a latch as an advance,
    # beside the baseline's five advances to cycle 5
    changed = sum(1 for r in result.records if r.root_cause)
    assert 0 < changed < points
    assert tr.total("pipeline.clock.glitched")[0] == 0
    assert tr.total("pipeline.clock.advance")[0] == 5 + changed
