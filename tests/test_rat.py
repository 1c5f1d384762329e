import dataclasses

import pytest

from glitchbench.asm import assemble
from glitchbench.glitch import GlitchSpec
from glitchbench.pipeline import Pipeline, run_pipeline
from glitchbench.rat import (CSV_HEADER, build_dynamic_rat, build_static_rat,
                             rat_to_csv, verify_rat_empirically)
from glitchbench.timing import reference_timing
from glitchbench.workloads import workload_program

TM = reference_timing()

PROG = """
    li x2, 0x400
    lw x5, 0(x2)
    add x6, x5, x5
    li x11, 0x80000000
    sw x6, 0(x11)
    ebreak
.org 0x400
    .word 21
"""


def test_static_rat_ranking():
    entries = build_static_rat(TM)
    assert len(entries) == 27
    assert [e.rank for e in entries] == list(range(1, 28))
    crits = [e.t_crit_ns for e in entries]
    assert crits == sorted(crits, reverse=True)
    # hand-checked top of the table
    assert (entries[0].iclass, entries[0].latch) == ("LOAD", "IF_ID")
    # 8.2 tie resolves lexicographically: ID_EX before IF_ID
    assert (entries[1].iclass, entries[1].latch) == ("MULDIV", "ID_EX")
    assert (entries[2].iclass, entries[2].latch) == ("MULDIV", "IF_ID")
    assert (entries[-1].iclass, entries[-1].latch) == ("SYSTEM", "EX_WB")
    # 7.8 tie between classes: ALU_IMM sorts before BRANCH
    pair78 = [(e.iclass, e.latch) for e in entries if e.t_crit_ns == 7.8]
    assert pair78 == [("ALU_IMM", "IF_ID"), ("BRANCH", "ID_EX")]


def test_static_rat_windows_and_slack():
    by_key = {(e.iclass, e.latch): e for e in build_static_rat(TM)}
    e = by_key[("LOAD", "IF_ID")]
    assert e.slack_ns == pytest.approx(1.2)
    assert e.window_lo_ns == 1.0
    assert e.window_hi_ns == pytest.approx(8.8)
    e = by_key[("SYSTEM", "EX_WB")]
    assert e.window_hi_ns == pytest.approx(3.7)


def test_rat_csv_shape():
    text = rat_to_csv(build_static_rat(TM))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 28
    first = lines[1].split(",")
    assert first[0] == "LOAD" and first[1] == "IF_ID" and first[-1] == "1"


def test_dynamic_windows_hand_checked_cycle():
    run = run_pipeline(assemble(PROG), record_trace=True)
    windows = build_dynamic_rat(run, TM)
    # cycle 3: lw sits in ID (captured into IF_ID at the opening edge),
    # the li's addi in EX, the lui result in WB
    at3 = [w for w in windows if w.cycle == 3]
    assert len(at3) == 1
    w = at3[0]
    assert w.latch == "IF_ID" and w.stage == "ID" and w.iclass == "LOAD"
    assert w.lo_ns == pytest.approx(TM.threshold("ALU_IMM", "ID_EX"))
    assert w.hi_ns == pytest.approx(8.8)
    assert w.target is not None and w.target[1] == "lw"


def test_dynamic_windows_subset_of_static():
    run = run_pipeline(assemble(PROG), record_trace=True)
    static = {(e.iclass, e.latch): e for e in build_static_rat(TM)}
    windows = build_dynamic_rat(run, TM)
    assert windows
    for w in windows:
        s = static[(w.iclass, w.latch)]
        assert s.window_lo_ns <= w.lo_ns < w.hi_ns
        assert w.hi_ns == pytest.approx(s.window_hi_ns)


def test_dynamic_requires_trace():
    run = run_pipeline(assemble(PROG))
    with pytest.raises(ValueError, match="trace"):
        build_dynamic_rat(run, TM)


def test_empirical_boundaries_match_predictions():
    checks = verify_rat_empirically(assemble(PROG), TM)
    assert checks
    for c in checks:
        assert c.hi_error <= 0.01, (c.window, c.empirical_hi)
        assert c.lo_error <= 0.01, (c.window, c.empirical_lo)
        assert c.selective, c.window


def test_fast_probe_agrees_with_full_runs():
    prog = assemble(PROG)
    run = run_pipeline(prog, timing=TM, record_trace=True)
    windows = build_dynamic_rat(run, TM)[:6]
    fast = verify_rat_empirically(prog, TM, windows)
    slow = verify_rat_empirically(prog, TM, windows, full_runs=True)
    assert len(fast) == len(slow)
    for f, s in zip(fast, slow):
        assert f.window == s.window
        assert f.empirical_hi == pytest.approx(s.empirical_hi, abs=2e-4)
        assert f.empirical_lo == pytest.approx(s.empirical_lo, abs=2e-4)
        assert f.selective == s.selective


def test_windows_past_the_halt_are_rejected():
    """A window whose cycle the glitch-free run never reaches cannot be
    probed: mb_system halts after 24 cycles."""

    prog = workload_program("mb_system")
    run = run_pipeline(prog, record_trace=True)
    w = build_dynamic_rat(run, TM)[0]
    assert verify_rat_empirically(prog, TM, [w])
    for cycle in (run.cycles, 101):
        late = dataclasses.replace(w, cycle=cycle)
        with pytest.raises(ValueError, match="halted"):
            verify_rat_empirically(prog, TM, [late, late])


@pytest.mark.parametrize("full_runs", [False, True])
def test_both_probe_paths_reject_windows_past_the_halt(full_runs):
    """The from-reset probe runs only to the end of the glitched cycle, and
    like the one-cycle probe it raises where the glitch cannot fire."""

    prog = workload_program("mb_system")
    run = run_pipeline(prog, record_trace=True)
    last = dataclasses.replace(build_dynamic_rat(run, TM)[0],
                               cycle=run.cycles - 1)
    assert verify_rat_empirically(prog, TM, [last], full_runs=full_runs)
    for cycle in (run.cycles, 101, 10**9):
        late = dataclasses.replace(last, cycle=cycle)
        with pytest.raises(ValueError, match=f"cannot glitch cycle {cycle}: "
                           f"the pipeline is halted at cycle {run.cycles}"):
            verify_rat_empirically(prog, TM, [late], full_runs=full_runs)


def first_latch_difference(prog, spec):
    """First cycle at whose start, before that cycle's glitch, a clean
    pipeline and one glitched by `spec`, clocked together, hold different
    (IF_ID, ID_EX, EX_WB) values; None if they agree until both halt."""

    clean, glitched = Pipeline(prog), Pipeline(prog, timing=TM)
    while True:
        if (clean.cycle != glitched.cycle
                or (clean.if_id, clean.id_ex, clean.ex_wb)
                != (glitched.if_id, glitched.id_ex, glitched.ex_wb)):
            return clean.cycle
        if glitched.cycle == spec.cycle:
            glitched = glitched.glitched(spec)
        if not any([clean.clock(), glitched.clock()]):
            return None
        assert clean.cycle < 10_000


def test_offset_at_window_hi_is_bit_identical():
    prog = assemble(PROG)
    base = run_pipeline(prog, record_trace=True)
    windows = build_dynamic_rat(base, TM)
    w = next(w for w in windows if w.cycle == 3)
    assert first_latch_difference(prog, GlitchSpec(w.cycle, w.hi_ns)) is None
    # the comparison does see a glitch that corrupts a latch
    assert first_latch_difference(prog, GlitchSpec(w.cycle, 8.0)) == 4
    glitched = run_pipeline(prog, timing=TM,
                            glitches=[GlitchSpec(w.cycle, w.hi_ns)],
                            max_cycles=10_000)
    assert glitched.corruptions == []
    assert glitched.retires == base.retires
    assert glitched.arch.same_arch(base.arch)
