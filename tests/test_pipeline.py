import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from proggen import random_source
from rv32_corpus import CORPUS
from glitchbench.asm import assemble
from glitchbench.campaign import build_plan
from glitchbench.glitch import CorruptionPolicy, GlitchSpec, IllegalPolicy
from glitchbench.isa import CLASS_OF, NOP_WORD, REG_READS, Illegal, decode
from glitchbench.machine import StepEvent, run_golden
from glitchbench.pipeline import (CONTROL, F_REG_WRITE, MASK32, WORDS,
                                  Pipeline, SlotMeta, run_pipeline)
from glitchbench.timing import TimingError, reference_timing
from glitchbench.workloads import workload_names, workload_program

TM = reference_timing()


def lockstep(src, max_steps=200_000):
    prog = assemble(src)
    gold = run_golden(prog, max_steps=max_steps)
    run = run_pipeline(prog, max_cycles=4 * max_steps)
    assert gold.status == "HALTED"
    assert run.status == "HALTED"
    assert run.retires == gold.events
    assert run.arch.same_arch(gold.state)
    return gold, run


STRAIGHT = """
    addi x1, x0, 1
    addi x2, x0, 2
    addi x3, x0, 3
    addi x4, x0, 4
    ebreak
"""


def test_straight_line_fill_and_drain():
    gold, run = lockstep(STRAIGHT)
    assert gold.steps == 5
    # 3-cycle fill, one retire per cycle after
    assert run.cycles == 3 + 5
    trace = run_pipeline(assemble(STRAIGHT), record_trace=True).trace
    occ0 = trace[0].occupancy
    assert occ0["ID"] is None and occ0["EX"] is None and occ0["WB"] is None
    assert occ0["IF"][0] == 0
    occ3 = trace[3].occupancy
    assert all(occ3[s] is not None for s in ("IF", "ID", "EX", "WB"))
    assert occ3["WB"][0] == 0 and occ3["EX"][0] == 4 and occ3["ID"][0] == 8


LOAD_USE = """
    li x2, 0x400
    lw x5, 0(x2)
    add x6, {src}, {src}
    ebreak
.org 0x400
    .word 21
"""


def test_load_use_inserts_exactly_one_bubble():
    _, dep = lockstep(LOAD_USE.format(src="x5"))
    _, indep = lockstep(LOAD_USE.format(src="x7"))
    assert dep.cycles == indep.cycles + 1
    assert dep.arch.regs[6] == 42


TAKEN = """
    addi x1, x0, 1
    beq x1, x1, target
    addi x9, x0, 111
    addi x9, x0, 222
target:
    addi x5, x0, 5
    ebreak
"""


def test_taken_branch_flushes_two_slots():
    gold, run = lockstep(TAKEN)
    assert gold.steps == 4
    assert run.arch.regs[9] == 0  # shadow never executed
    trace = run_pipeline(assemble(TAKEN), record_trace=True).trace
    wb_busy = [t.cycle for t in trace if t.occupancy["WB"] is not None]
    # branch retires, then two dead cycles while the flush refills
    assert wb_busy == [3, 4, 7, 8]


def test_branch_condition_uses_bypassed_value():
    src = """
        addi x1, x0, 7
        addi x2, x0, 7
        beq x1, x2, good
        ebreak
    good:
        addi x3, x0, 1
        ebreak
    """
    _, run = lockstep(src)
    assert run.arch.regs[3] == 1


DIV = """
    addi x1, x0, 97
    addi x2, x0, 7
    div x3, x1, x2
    add x4, x3, x3
    ebreak
"""


def test_div_occupies_ex_32_cycles():
    gold, run = lockstep(DIV)
    assert run.arch.regs[3] == 13
    assert run.arch.regs[4] == 26
    trace = run_pipeline(assemble(DIV), record_trace=True).trace
    div_pc = 8
    ex_div = [t.cycle for t in trace
              if t.occupancy["EX"] and t.occupancy["EX"][0] == div_pc]
    assert len(ex_div) == 32
    assert ex_div == list(range(ex_div[0], ex_div[0] + 32))
    mul_run = lockstep(DIV.replace("div ", "mul "))[1]
    assert mul_run.cycles == run.cycles - 31


def test_mixed_program_lockstep():
    src = """
        li x2, 0x400
        li x7, -5
        sw x7, 12(x2)
        lw x8, 12(x2)
        mul x9, x8, x8
        jal x1, helper
        add x10, x9, x12
        li x11, 0x80000000
        sw x10, 0(x11)
        sw x9, 0(x11)
        ebreak
    helper:
        addi x12, x0, 40
        srai x13, x7, 1
        ret
    .org 0x400
        .word 0
    """
    gold, run = lockstep(src)
    assert run.arch.output_log == [65, 25]
    assert run.arch.regs[13] == 0xFFFFFFFD  # srai of -5 by 1 is -3


def test_traps_match_reference():
    for src, cause in [
        ("li x2, 0x401\nlw x5, 0(x2)\nebreak", "MISALIGNED_LOAD"),
        ("li x2, 0x402\nsw x5, 0(x2)\nebreak", "MISALIGNED_STORE"),
        ("nop\n.illegal 0xFFFF0000\nebreak", "ILLEGAL"),
        ("j 0x100", "FETCH_FAULT"),
        ("addi x1, x0, 0x102\njalr x0, 0(x1)\nebreak", "MISALIGNED_FETCH"),
        ("beq x0, x0, 6\nebreak", "MISALIGNED_FETCH"),
        ("bne x0, x0, 6\nebreak", "EBREAK"),
        ("jal x1, 6\nebreak", "MISALIGNED_FETCH"),
    ]:
        prog = assemble(src)
        gold = run_golden(prog)
        run = run_pipeline(prog)
        assert gold.state.halt_cause == cause
        assert run.status == "HALTED"
        assert run.retires == gold.events
        assert run.arch.same_arch(gold.state)


def test_halt_port_and_output_port():
    src = """
        li x5, 0xBEEF
        li x11, 0x80000000
        sw x5, 0(x11)
        li x6, 9
        sw x6, 4(x11)
        addi x7, x0, 1
    """
    gold, run = lockstep(src)
    assert run.arch.exit_code == 9
    assert run.arch.output_log == [0xBEEF]
    assert run.arch.regs[7] == 0  # past the halt, never retired


def test_not_halted_budget():
    prog = assemble("loop: j loop")
    run = run_pipeline(prog, max_cycles=500)
    assert run.status == "NOT_HALTED"
    assert run.cycles == 500


@pytest.mark.parametrize("seed", range(20))
def test_random_programs_lockstep(seed):
    prog = assemble(random_source(seed))
    gold = run_golden(prog, max_steps=100_000)
    assert gold.status == "HALTED"
    run = run_pipeline(prog, max_cycles=400_000)
    assert run.status == "HALTED"
    assert run.retires == gold.events
    assert run.arch.same_arch(gold.state)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_programs_lockstep(seed):
    lockstep(random_source(seed), max_steps=100_000)


# -- glitch behavior through the pipeline -----------------------------------


GLITCH_PROG = """
    li x2, 0x400
    lw x5, 0(x2)
    add x6, x5, x5
    li x11, 0x80000000
    sw x6, 0(x11)
    ebreak
.org 0x400
    .word 21
"""


def test_run_pipeline_refuses_a_glitch_it_cannot_fire():
    prog = assemble(GLITCH_PROG)
    with pytest.raises(ValueError, match="timing"):
        run_pipeline(prog, glitches=[GlitchSpec(3, 5.0)])
    with pytest.raises(ValueError, match="duplicate"):
        run_pipeline(prog, timing=TM,
                     glitches=[GlitchSpec(3, 5.0), GlitchSpec(3, 6.0)])
    with pytest.raises(TimingError):
        run_pipeline(prog, timing=TM, glitches=[GlitchSpec(4, 0.2)])
    with pytest.raises(ValueError, match="at least 0"):
        run_pipeline(prog, timing=TM, glitches=[GlitchSpec(-1, 5.0)])
    # a glitch the run never reaches raises as `glitched` does
    halt = run_pipeline(prog).cycles
    for cycle in (halt, 10**9):
        with pytest.raises(ValueError, match=f"^cannot glitch cycle {cycle}: "
                           f"the pipeline is halted at cycle {halt}$"):
            run_pipeline(prog, timing=TM, glitches=[GlitchSpec(cycle, 5.0)])
    assert halt > 4
    with pytest.raises(ValueError, match="^cannot glitch cycle 4: "
                       "the pipeline is running at cycle 3$"):
        run_pipeline(prog, timing=TM, glitches=[GlitchSpec(4, 5.0)],
                     max_cycles=3)


def test_glitch_free_cycles_have_no_events():
    run = run_pipeline(assemble(GLITCH_PROG), timing=TM,
                       glitches=[GlitchSpec(2, 9.9)])
    assert run.corruptions == []
    assert run.mechanisms == []
    gold = run_golden(assemble(GLITCH_PROG))
    assert run.retires == gold.events


def test_reset_cycle_glitch_is_noop():
    run = run_pipeline(assemble(GLITCH_PROG), timing=TM,
                       glitches=[GlitchSpec(0, 1.0)])
    assert run.corruptions == []
    assert run.arch.same_arch(run_golden(assemble(GLITCH_PROG)).state)


def test_instr_word_corruption_records_events():
    # lw is in ID at cycle 3; 8.3 ns is below the LOAD fetch threshold but
    # above every co-resident one
    run = run_pipeline(assemble(GLITCH_PROG), timing=TM,
                       glitches=[GlitchSpec(3, 8.3)], max_cycles=10_000)
    assert run.corruptions
    assert {c.latch for c in run.corruptions} == {"IF_ID"}
    assert {c.field for c in run.corruptions} == {"instr_word"}
    assert all(c.iclass == "LOAD" for c in run.corruptions)


def test_zero_policy_deep_offset_makes_illegal_word():
    # 2.5 ns is below the 30% arrival floor of the instruction word, so
    # every bit zeroes: 0x00000000 fails decode and NOP_REPLACE kicks in
    run = run_pipeline(
        assemble(GLITCH_PROG), timing=TM, max_cycles=10_000,
        glitches=[GlitchSpec(3, 2.5, CorruptionPolicy.ZERO_LATE_BITS,
                             IllegalPolicy.NOP_REPLACE)])
    kinds = {m.kind for m in run.mechanisms}
    assert "NOP_REPLACEMENT" in kinds
    words = [c for c in run.corruptions
             if c.latch == "IF_ID" and c.field == "instr_word"]
    assert words and words[0].corrupted == 0
    # x5 never loaded: the doubled value comes out of reset zero
    assert run.arch.output_log == [0]
    assert run.status == "HALTED"


def test_trap_policy_turns_illegal_into_trap():
    run = run_pipeline(
        assemble(GLITCH_PROG), timing=TM, max_cycles=10_000,
        glitches=[GlitchSpec(3, 2.5, CorruptionPolicy.ZERO_LATE_BITS,
                             IllegalPolicy.TRAP)])
    assert run.status == "HALTED"
    assert run.arch.halt_cause == "ILLEGAL"


GHOST_PROG = """
    addi x1, x0, 1
    beq x1, x1, target
    addi x9, x0, 111
    addi x9, x0, 222
target:
    addi x5, x0, 5
    li x11, 0x80000000
    sw x5, 0(x11)
    ebreak
"""


def test_ghost_revival_of_flushed_slot():
    # the branch redirects at cycle 3; the edge into cycle 4 captures the
    # squashed shadow instruction with valid=0. A deep glitch leaves valid
    # stale at 1 and the whole word stale, reviving the shadow.
    base = run_golden(assemble(GHOST_PROG))
    run = run_pipeline(assemble(GHOST_PROG), timing=TM, max_cycles=10_000,
                       glitches=[GlitchSpec(4, 1.0)])
    kinds = [m.kind for m in run.mechanisms]
    assert "GHOST_INSTRUCTION" in kinds
    ghosts = [c for c in run.corruptions if c.ghost]
    assert ghosts and all(c.latch == "IF_ID" for c in ghosts)
    assert run.retires != base.events


def test_bubble_injection_kills_first_instruction():
    run = run_pipeline(assemble(GLITCH_PROG), timing=TM, max_cycles=10_000,
                       glitches=[GlitchSpec(1, 1.0)])
    assert any(c.bubble_injected for c in run.corruptions)
    gold = run_golden(assemble(GLITCH_PROG))
    assert len(run.retires) < len(gold.events) or run.retires != gold.events


def test_stale_register_policy_reverts_all_fields():
    run = run_pipeline(
        assemble(GLITCH_PROG), timing=TM, max_cycles=10_000,
        glitches=[GlitchSpec(4, 6.0, CorruptionPolicy.STALE_REGISTER)])
    idex = [c for c in run.corruptions if c.latch == "ID_EX"]
    assert {c.field for c in idex} == {"control", "rs1_val", "rs2_val",
                                       "imm", "rd", "pc", "valid"}


def test_fork_resume_equals_straight_run():
    prog = assemble(random_source(3))
    full = run_pipeline(prog, max_cycles=100_000)
    p = Pipeline(prog)
    while p.cycle < 40 and p.clock():
        pass
    prefix = len(p.retires)
    f = p.fork()
    f.run(100_000)
    assert p.retires[:prefix] + f.retires == full.retires
    assert f.arch.same_arch(full.arch)


MB_NAMES = [name for name in workload_names() if name.startswith("mb_")]
SLOTS = ("if_id", "id_ex", "ex_wb", "prev_if_id", "prev_id_ex", "prev_ex_wb")


@pytest.mark.parametrize("policy", list(CorruptionPolicy))
def test_every_valid_slot_carries_a_meta_after_a_glitch(policy):
    """Stages read a valid slot's meta without a fallback, and the fields
    only EX writes hold their defaults in every IF_ID and ID_EX meta.
    Every point of the default grid of every mb_* program, at the glitched
    edge and after the glitched cycle."""

    kinds = set()
    for name in MB_NAMES:
        plan, _ = build_plan(workload_program(name), TM, policy=policy)
        base = Pipeline(plan.program, timing=TM)
        for cycle in plan.cycles:
            for k in range(plan.offset_count):
                f = base.glitched(GlitchSpec(cycle, plan.offset(k), policy))
                for at in ("edge", "cycle"):
                    if at == "cycle":
                        f.clock()
                    kinds |= {m.kind for m in f.mechanisms}
                    for slot in SLOTS:
                        meta = getattr(f, slot + "_meta")
                        where = (name, cycle, k, at, slot)
                        assert not getattr(f, slot).valid or isinstance(
                            meta, SlotMeta), where
                        if meta is not None and not slot.endswith("ex_wb"):
                            assert (meta.trap_cause, meta.next_pc,
                                    meta.mem_write, meta.output,
                                    meta.halt) == (None, 0, None, None,
                                                   None), where
            base.clock()
    # stale policies revive slots from the previous slot's meta
    assert ("GHOST_INSTRUCTION" in kinds) == \
        (policy is not CorruptionPolicy.ZERO_LATE_BITS)
    assert "MUTATED_INSTRUCTION" in kinds


def test_forks_leave_the_parent_untouched():
    """127 glitched forks of one cycle, each run to halt or hang, share the
    parent's latch values and metas without changing them."""

    pairs = [(p, i) for p in CorruptionPolicy for i in IllegalPolicy]
    kinds = set()
    for n, name in enumerate(MB_NAMES):
        plan, golden = build_plan(workload_program(name), TM)
        for j, cycle in enumerate(range(0, golden.cycles, 7)):
            policy, illegal = pairs[(n + j) % len(pairs)]
            parent = Pipeline(plan.program, timing=TM)
            fresh = Pipeline(plan.program, timing=TM)
            while parent.cycle < cycle:
                parent.clock()
                fresh.clock()
            for k in range(plan.offset_count):
                f = parent.fork()
                assert all(getattr(f, a) is getattr(parent, a)
                           for slot in SLOTS for a in (slot, slot + "_meta"))
                f = parent.glitched(
                    GlitchSpec(cycle, plan.offset(k), policy, illegal))
                f.clock()
                f.run(golden.cycles * plan.hang_factor)
                kinds |= {m.kind for m in f.mechanisms}
            assert vars(parent) == vars(fresh), (name, cycle)
            assert parent.state_key() == fresh.state_key()
    assert kinds == {"GHOST_INSTRUCTION", "MUTATED_INSTRUCTION",
                     "NOP_REPLACEMENT"}


@pytest.mark.parametrize("name", ["mb_load", "mb_branch"])
def test_from_reset_glitch_equals_a_glitched_fork(name):
    """A from-reset `run_pipeline` glitch (the oracle, no fork) equals a
    baseline advanced to the glitch cycle, `glitched` there and run on:
    the same corruptions, mechanisms, retires and final state. Every cycle
    of the run, a few offsets, all three corruption policies."""

    plan, golden = build_plan(workload_program(name), TM)
    budget = golden.cycles * plan.hang_factor
    base = Pipeline(plan.program, timing=TM)
    fresh = Pipeline(plan.program, timing=TM)
    changed = 0
    while not base.arch.halted:
        for policy in CorruptionPolicy:
            for offset in (1.0, 3.5, 6.0, 8.5):
                spec = GlitchSpec(base.cycle, offset, policy)
                run = run_pipeline(plan.program, timing=TM, glitches=[spec],
                                   max_cycles=budget)
                f = base.glitched(spec)
                f.run(budget)
                where = (name, spec)
                assert f.corruptions == run.corruptions, where
                assert f.mechanisms == run.mechanisms, where
                assert base.retires + f.retires == run.retires, where
                assert f.arch.same_arch(run.arch), where
                assert (f.cycle, f.arch.halted) == \
                    (run.cycles, run.status == "HALTED"), where
                changed += any(e.changed for e in run.corruptions)
        assert vars(base) == vars(fresh), (name, base.cycle)
        base.clock()
        fresh.clock()
    assert changed


def test_glitched_needs_the_running_pipeline_at_the_glitch_cycle():
    p = Pipeline(workload_program("mb_system"), timing=TM)
    p.run(5)
    for cycle in (4, 6, 100):
        with pytest.raises(ValueError,
                           match=f"cycle {cycle}: .* running at cycle 5"):
            p.glitched(GlitchSpec(cycle, 5.0))
    probe = p.glitched(GlitchSpec(5, 5.0))
    assert probe.cycle == 5
    probe.clock()
    assert probe.cycle == 6
    p.run(1000)
    assert p.arch.halted
    with pytest.raises(ValueError, match="halted"):
        p.glitched(GlitchSpec(p.cycle, 5.0))


def test_glitched_checks_the_timing_model_and_the_offset():
    """`glitched` checks the timing model and the offset, and a refused
    glitch leaves the pipeline as it was."""

    prog = workload_program("mb_system")
    untimed, fresh = Pipeline(prog), Pipeline(prog)
    untimed.run(5)
    fresh.run(5)
    with pytest.raises(ValueError,
                       match="^glitch injection needs a timing model$"):
        untimed.glitched(GlitchSpec(5, 5.0))
    assert vars(untimed) == vars(fresh)

    p, fresh = Pipeline(prog, timing=TM), Pipeline(prog, timing=TM)
    p.run(5)
    fresh.run(5)
    for offset in (-1.0, 0.0, TM.min_glitch_ns - 1e-9, TM.clock_period_ns,
                   1e9, float("nan")):
        with pytest.raises(TimingError):
            p.glitched(GlitchSpec(5, offset))
    assert vars(p) == vars(fresh)


@pytest.mark.parametrize("policy", list(CorruptionPolicy))
def test_an_edge_that_changes_no_field_leaves_the_baseline(policy):
    """The campaign returns the golden record for a point whose glitched
    edge changes no field, without clocking the glitched cycle. That holds
    because such an edge fork is the baseline: the same state key, the
    baseline's own latch values and metas, its illegal-word policy and no
    mechanism. Every point of the mb_* default grids."""

    unchanged = recorded = 0
    for name in MB_NAMES:
        plan, _ = build_plan(workload_program(name), TM, policy=policy)
        base = Pipeline(plan.program, timing=TM)
        for cycle in plan.cycles:
            for k in range(plan.offset_count):
                f = base.glitched(GlitchSpec(cycle, plan.offset(k), policy,
                                             IllegalPolicy.NOP_REPLACE))
                if any(e.changed for e in f.corruptions):
                    continue
                where = (name, cycle, k)
                assert f.state_key() == base.state_key(), where
                assert all(getattr(f, a) is getattr(base, a)
                           for slot in SLOTS
                           for a in (slot, slot + "_meta")), where
                assert f.illegal_policy is base.illegal_policy, where
                assert f.mechanisms == [], where
                unchanged += 1
                recorded += bool(f.corruptions)
            base.clock()
    assert unchanged > recorded, (unchanged, recorded)
    # late bits that land on equal values are recorded but change nothing;
    # on these grids a whole-register revert always changes some field
    assert (recorded > 0) == (policy is not CorruptionPolicy.STALE_REGISTER)


@pytest.mark.parametrize("policy", [CorruptionPolicy.STALE_BITS,
                                    CorruptionPolicy.ZERO_LATE_BITS])
def test_no_run_replaces_one_pc_twice(policy):
    """A NOP-replaced word decodes as addi x0, x0, 0, which never stalls,
    so its slot leaves IF_ID and is decoded once: no run raises
    NOP_REPLACEMENT twice for one pc. Every point of the mb_* default
    grids under NOP_REPLACE (STALE_REGISTER latches only words fetched
    before, so it replaces none), each run to halt or hang; points that
    reach the same state after the glitched cycle share one continuation."""

    replaced = 0
    for name in MB_NAMES:
        plan, golden = build_plan(workload_program(name), TM, policy=policy)
        base = Pipeline(plan.program, timing=TM)
        for cycle in plan.cycles:
            tails = {}  # state after the glitched cycle -> its NOP pcs
            for k in range(plan.offset_count):
                f = base.glitched(GlitchSpec(cycle, plan.offset(k), policy))
                f.clock()
                before = len(f.mechanisms)
                key = f.state_key()
                if key not in tails:
                    f.run(golden.cycles * plan.hang_factor)
                    tails[key] = [m.pc for m in f.mechanisms[before:]
                                  if m.kind == "NOP_REPLACEMENT"]
                pcs = [m.pc for m in f.mechanisms[:before]
                       if m.kind == "NOP_REPLACEMENT"] + tails[key]
                assert len(pcs) == len(set(pcs)), (name, cycle, k, pcs)
                replaced += len(pcs)
            base.clock()
    assert replaced > 1000, replaced


def test_corruption_confined_to_glitch_cycle():
    # every corruption event carries the glitch cycle; later cycles only
    # propagate architectural consequences
    run = run_pipeline(assemble(GLITCH_PROG), timing=TM, max_cycles=10_000,
                       glitches=[GlitchSpec(3, 4.0)])
    assert run.corruptions
    assert {c.cycle for c in run.corruptions} == {3}


TRACE_DIGEST = \
    "612000a84a0ebaf8b4713d783b603888e260ebd5988521674434829fcdd39924"


def test_trace_digest_is_frozen():
    # pins occupancy and the capture profile of every cycle, held latches
    # (DIV, load-use stall) and squashed fetches included; c[:2] is
    # (fresh, iclass)
    digest = hashlib.sha256()
    entries = 0
    held = set()

    def feed(run):
        nonlocal entries
        for e in run.trace:
            digest.update(repr((e.cycle, e.occupancy,
                                {latch: c[:2] for latch, c
                                 in e.captures.items()})).encode())
            held.add(tuple(latch for latch, c in e.captures.items()
                           if not c[0]))
        entries += len(run.trace)

    for name in workload_names():
        prog = workload_program(name, input_index=0 if name == "bnn" else None)
        clean = run_pipeline(prog, timing=TM, record_trace=True)
        feed(clean)
        if name.startswith("mb_"):
            for policy in CorruptionPolicy:
                feed(run_pipeline(
                    prog, timing=TM, record_trace=True,
                    glitches=[GlitchSpec(clean.cycles // 2, 1.0, policy)]))
    assert entries == 10_627
    assert {("IF_ID",), ("IF_ID", "ID_EX")} <= held
    assert digest.hexdigest() == TRACE_DIGEST


CONTROL_DIGEST = \
    "c35b8f39d6bdc97aa243aad383cea9a309b99a46a2e7b73a7e44fd653b2ade17"


def test_control_word_table_is_frozen():
    assert len(CONTROL) == 48
    digest = hashlib.sha256(json.dumps(CONTROL, sort_keys=True).encode())
    assert digest.hexdigest() == CONTROL_DIGEST


# words 0x00-0x3C are code, 0x40-0x7C data; the EX slot sits at 0x20
EX_PROG = "\n".join(["addi x1, x1, 1"] * 16 + [".word 0x8BADF00D"] * 16)
EX_META = SlotMeta(7, 0x20, 0x00108093, "addi", "ALU_IMM")
STALE = dict(next_pc=0x999, mem_write=(1, 2, 3, 4), output=9,
             halt=("HALT_PORT", 1))
# (rs1, rs2, imm, rd, meta, strict); each comment says where the targets
# pc + imm and rs1 + imm land and which way the compares go
EX_OPERANDS = [
    (0x40, 0x40, 8, 5, EX_META, False),            # aligned, equal, mapped
    (0x40, 7, 6, 5, EX_META, False),               # 2-misaligned
    (0x40, 7, 9, 5, EX_META, False),               # odd; jalr clears bit 0
    (0xFFFFFFF0, 5, 4, 31, EX_META, False),        # to pc+4; s< but u>
    (5, 0xFFFFFFF0, -8 & MASK32, 1,                # u< but s>, below pc,
     EX_META._replace(**STALE), False),            # stale meta fields
    (0x1000, 0xAB, 0, 5, EX_META, False),          # unmapped
    (0x1000, 0xAB, 0, 5, EX_META, True),           # unmapped, strict
    (0x80000000, 0x1234, 0, 5, EX_META, False),    # output port
    (0x80000000, 7, 4, 5, EX_META, False),         # halt port
    (100, 7, 0x10, 5, EX_META, False),             # DIV to completion
    (0x80000000, 0, 0x10, 0, EX_META, False),      # divide by zero, rd 0
    (0x40, 3, 0x10, 5,                             # a fetch-fault meta
     EX_META._replace(fault_cause="FETCH_FAULT", word_corrupted=True), False),
]
EX_DIGEST = \
    "ad539896114758984f4c3b7c890506dc35491cbd243573673336f9607f61c7b0"


def _ex_answer(base: Pipeline, control: int, operands) -> tuple:
    rs1, rs2, imm, rd, meta, _ = operands
    p = base.fork()
    p.id_ex = p.id_ex._replace(control=control, rs1_val=rs1, rs2_val=rs2,
                               imm=imm, rd=rd, pc=0x20, valid=1)
    p.id_ex_meta = meta
    p.fetch_pc = 0x28
    p.clock()
    while p.ex_remaining:
        p.clock()
    a = p.arch
    return (p.ex_wb, p.ex_wb_meta, p.fetch_pc, p.fetch_stopped,
            a.pc, a.regs, sorted(a.mem.items()), a.output_log, a.halted,
            a.halt_cause, a.exit_code, a.unmapped_reads)


def test_execute_answers_are_frozen_for_every_control_word():
    # a corrupted control word may select any unit with any flags, which
    # lockstep runs never reach; bits 12-15 select nothing
    prog = assemble(EX_PROG)
    bases = {strict: Pipeline(prog, strict=strict) for strict in (False, True)}
    digest = hashlib.sha256()
    for control in range(1 << 12):
        for i, ops in enumerate(EX_OPERANDS):
            answer = _ex_answer(bases[ops[-1]], control, ops)
            digest.update(repr((control, i, answer)).encode())
    rng = random.Random(17)
    for _ in range(300):
        control = rng.randrange(1 << 12, 1 << 16)
        ops = rng.choice(EX_OPERANDS)
        assert _ex_answer(bases[ops[-1]], control, ops) == \
            _ex_answer(bases[ops[-1]], control & 0xFFF, ops), hex(control)
    assert digest.hexdigest() == EX_DIGEST


def test_trap_carriers_keep_their_labels_and_trap_slots_write_no_register():
    # states a glitch can leave behind: a word turned illegal under a meta
    # that still names the old instruction, a fetch-fault meta, and a trap
    # slot whose rd a glitch set
    base = Pipeline(assemble(EX_PROG))
    base.illegal_policy = IllegalPolicy.TRAP
    old = SlotMeta(3, 0x20, 0x00108093, "addi", "ALU_IMM", word_corrupted=True)
    for meta, raw, mnemonic in (
            (old, 0xFFFF0000, ""),                  # labelled by the latch
            (old._replace(fault_cause="FETCH_FAULT"), 0x00108093, "addi")):
        p = base.fork()
        p.if_id = p.if_id._replace(instr_word=0xFFFF0000, pc=0x20, valid=1)
        p.if_id_meta = meta
        p.clock()
        assert p.id_ex_meta == meta._replace(
            raw=raw, mnemonic=mnemonic, iclass_name="SYSTEM",
            fault_cause=meta.fault_cause or "ILLEGAL")
        p.clock()
        assert p.ex_wb_meta.trap_cause == (meta.fault_cause or "ILLEGAL")
        p.ex_wb = p.ex_wb._replace(result=0x55, rd=7)
        p.clock()
        assert p.retires == [StepEvent(0x20, 0x20, raw, mnemonic,
                                       halt=p.ex_wb_meta.trap_cause)]
        assert p.arch.regs[7] == 0
        assert (p.arch.halted, p.arch.pc, p.arch.exit_code) == \
            (True, 0x20, None)


def test_word_table_agrees_with_decode():
    rng = random.Random(11)
    words = ([w for _, w in CORPUS] + [0x00000000, 0xFFFFFFFF, NOP_WORD]
             + [rng.getrandbits(32) for _ in range(20_000)])
    legal = 0
    for word in words:
        d = decode(word)
        entry = WORDS[word]
        if isinstance(d, Illegal):
            assert entry is None, hex(word)
            continue
        legal += 1
        m = d.mnemonic
        control = CONTROL[m]
        assert entry == (m, CLASS_OF[m].value, control, *REG_READS[m],
                         d.rs1, d.rs2, d.rd if control & F_REG_WRITE else 0,
                         d.imm & MASK32), hex(word)
        assert WORDS[word] is entry
    # the random sample reaches both legal and illegal words
    assert len(CORPUS) < legal < len(words) - 2


def test_iss_and_pipeline_retire_the_same_step_events_on_bnn():
    prog = workload_program("bnn", input_index=5)
    gold = run_golden(prog)
    run = run_pipeline(prog)
    assert gold.status == run.status == "HALTED"
    assert len(run.retires) == len(gold.events) > 1000
    for mine, ref in zip(run.retires, gold.events):
        assert type(mine) is type(ref) is StepEvent
        assert mine._asdict() == ref._asdict()
    assert run.arch.same_arch(gold.state)
