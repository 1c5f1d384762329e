"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single PASS line naming the guarantee it just
checked, so a -s / failure log reads as a checklist.
"""

import hashlib
import random

import pytest

from proggen import random_source
from rv32_corpus import CORPUS

from glitchbench.asm import assemble
from glitchbench.campaign import (
    CampaignPlan, build_plan, run_campaign, golden_baseline,
)
from glitchbench.glitch import CorruptionPolicy, GlitchSpec, IllegalPolicy
from glitchbench.isa import decode, disassemble, reencode
from glitchbench.machine import run_golden
from glitchbench.pipeline import Pipeline, run_pipeline
from glitchbench.rat import build_dynamic_rat, verify_rat_empirically
from glitchbench.timing import reference_timing
from glitchbench.workloads import (
    bnn_program, make_bnn_model, reference_bnn_forward, workload_names,
    workload_program,
)

TIMING = reference_timing()
MODEL = make_bnn_model()


def _lockstep(program, max_cycles=200_000, strict=False):
    gold = run_golden(program, max_steps=max_cycles, strict=strict)
    run = run_pipeline(program, max_cycles=max_cycles, strict=strict)
    assert run.status == gold.status == "HALTED"
    assert len(run.retires) == len(gold.events)
    for mine, ref in zip(run.retires, gold.events):
        assert (mine.pc, mine.next_pc, mine.raw, mine.reg_write,
                mine.mem_write, mine.output, mine.halt) == \
               (ref.pc, ref.next_pc, ref.raw, ref.reg_write,
                ref.mem_write, ref.output, ref.halt)
    assert run.arch.same_arch(gold.state)
    return len(gold.events)


def test_c1_pipeline_matches_reference_model_in_lockstep():
    """Glitch-free pipeline == single-cycle reference, retirement for
    retirement, on every built-in workload and 50 random programs."""

    retired = 0
    for name in workload_names():
        prog = workload_program(name, input_index=0 if name == "bnn" else None)
        retired += _lockstep(prog)
    for seed in range(200, 250):
        retired += _lockstep(assemble(random_source(seed)))
    print(f"ACCEPTANCE #1 PASS - lockstep equivalence over "
          f"{10 + 50} programs, {retired} retirements compared exactly")


# (source, halt cause) of programs that end on each halt and trap cause
ENDINGS = [
    ("addi x1, x0, 1\necall\n", "ECALL"),
    ("addi x5, x0, 0x402\nsw x1, 0(x5)\nebreak\n", "MISALIGNED_STORE"),
    ("addi x5, x0, 0x402\nlw x1, 0(x5)\nebreak\n", "MISALIGNED_LOAD"),
    ("addi x5, x0, 0x401\nlh x1, 0(x5)\nebreak\n", "MISALIGNED_LOAD"),
    ("addi x1, x0, 1\njal x2, 2\nebreak\n", "MISALIGNED_FETCH"),
    ("addi x5, x0, 6\njalr x0, 0(x5)\nebreak\n", "MISALIGNED_FETCH"),
    ("beq x0, x0, 2\nebreak\n", "MISALIGNED_FETCH"),
    ("addi x1, x0, 1\n", "FETCH_FAULT"),
    ("addi x1, x0, 1\n.illegal 0xffffffff\n", "ILLEGAL"),
    ("li x5, 0x80000004\naddi x6, x0, 7\nsw x6, 0(x5)\nebreak\n",
     "HALT_PORT"),
]


@pytest.mark.parametrize("src, cause", ENDINGS)
def test_c1_lockstep_on_every_halt_and_trap_cause(src, cause):
    """C1's lockstep check on programs that end on each halt and trap
    cause, so every such path of both models is compared."""

    prog = assemble(src + ".org 0x400\n.word 0, 0\n")
    _lockstep(prog)
    assert run_golden(prog).state.halt_cause == cause


def test_c1_lockstep_on_misaligned_entry_and_strict_load():
    entry_2 = assemble("nop\nnop\nebreak\n")
    entry_2.entry = 2
    _lockstep(entry_2)
    assert run_golden(entry_2).state.halt_cause == "MISALIGNED_FETCH"
    unmapped = assemble("li x5, 0x2000\nlw x6, 0(x5)\nebreak\n")
    _lockstep(unmapped, strict=True)
    assert run_golden(unmapped, strict=True).state.halt_cause == \
        "UNMAPPED_LOAD"


def test_c2_safe_offsets_are_always_no_effect():
    """1000 random (cycle, offset, policy) triples with the offset at or
    above every occupied latch threshold: zero captured late bits."""

    rng = random.Random(0x5AFE)
    policies = list(CorruptionPolicy)
    period = TIMING.clock_period_ns
    checked = 0
    boundary = 0
    for name in workload_names():
        prog = workload_program(name, input_index=0 if name == "bnn" else None)
        traced = run_pipeline(prog, timing=TIMING, max_cycles=100_000,
                              record_trace=True)
        floors = []
        for entry in traced.trace:
            thresholds = [TIMING.threshold(ic, latch)
                          for latch, (fresh, ic) in entry.captures.items()
                          if fresh and ic is not None]
            floors.append(max(thresholds) if thresholds
                          else TIMING.min_glitch_ns)
        triples = []
        for i in range(100):
            cycle = rng.randrange(traced.cycles)
            floor = floors[cycle]
            if i % 10 == 0:
                off = floor  # the boundary itself is exactly safe
                boundary += 1
            else:
                off = floor + rng.random() * (period - 1e-6 - floor)
            triples.append((cycle, off, policies[rng.randrange(3)]))
        baseline = Pipeline(prog, timing=TIMING)
        for cycle, off, policy in sorted(triples, key=lambda t: t[:2]):
            while baseline.cycle < cycle and not baseline.arch.halted:
                baseline.clock()
            fork = baseline.glitched(GlitchSpec(cycle, off, policy))
            assert not fork.corruptions, (name, cycle, off, policy)
            checked += 1
    assert checked == 1000
    print(f"ACCEPTANCE #2 PASS - {checked} safe injections (incl. "
          f"{boundary} exactly on a threshold) all NO_EFFECT")


def test_c3_decode_attack_replaces_a_load_and_misclassifies():
    """Somewhere in the classifier's weight-fetch loop a glitch turns a
    load word into an illegal encoding; under the nop-replace policy the
    load silently vanishes and the predicted class changes."""

    found = None
    tried = 0
    for k in range(8):
        prog = bnn_program(input_index=k)
        golden = golden_baseline(prog, max_cycles=100_000)
        traced = run_pipeline(prog, timing=TIMING, max_cycles=100_000,
                              record_trace=True)
        windows = [w for w in build_dynamic_rat(traced, TIMING)
                   if w.latch == "IF_ID" and w.iclass == "LOAD"
                   and w.target and w.target[1] == "lw"]
        baseline = Pipeline(prog, timing=TIMING)
        for w in windows[:220]:
            while baseline.cycle < w.cycle and not baseline.arch.halted:
                baseline.clock()
            for policy in (CorruptionPolicy.STALE_BITS,
                           CorruptionPolicy.ZERO_LATE_BITS):
                off = w.lo_ns + 0.025
                while off < w.hi_ns:
                    spec = GlitchSpec(w.cycle, off, policy,
                                      IllegalPolicy.NOP_REPLACE)
                    probe = baseline.glitched(spec)
                    probe.clock()  # NOP_REPLACEMENT is raised in decode
                    if any(m.kind == "NOP_REPLACEMENT"
                           for m in probe.mechanisms) and tried < 400:
                        tried += 1
                        plan = CampaignPlan(
                            prog, TIMING, w.cycle, w.cycle + 1,
                            spec.offset_ns, 1.0, 1, policy,
                            IllegalPolicy.NOP_REPLACE, label="attack")
                        record = run_campaign(plan, golden).records[0]
                        if (record.outcome == "NOP_REPLACEMENT"
                                and record.root_cause == "IF_ID.instr_word"
                                and record.misclassified):
                            found = (k, spec, record, golden)
                            break
                    off += 0.05
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None, "no nop-replacing glitch misclassified"
    k, spec, record, golden = found
    ref = reference_bnn_forward(MODEL, MODEL.inputs[k])
    assert golden.output == (ref.winner,)
    assert record.output != golden.output
    print(f"ACCEPTANCE #3 PASS - input {k}: cycle {spec.cycle} @ "
          f"{spec.offset_ns:.3f}ns nop-replaced a weight load "
          f"(root {record.root_cause}), class {golden.output[0]} -> "
          f"{list(record.output)}")


def test_c4_predicted_windows_match_probed_boundaries():
    """Every selective window predicted for the classifier and all nine
    microbenches: empirical boundaries within 0.01 ns, interior hits
    exactly the predicted latch, just above the top corrupts nothing."""

    worst = 0.0
    total = 0
    probes = 0
    for name in workload_names():
        prog = workload_program(name, input_index=0 if name == "bnn" else None)
        checks = verify_rat_empirically(prog, TIMING, max_cycles=100_000)
        for c in checks:
            assert c.lo_error <= 0.01, (name, c)
            assert c.hi_error <= 0.01, (name, c)
            assert c.selective, (name, c)
            worst = max(worst, c.lo_error, c.hi_error)
            probes += c.probes
        total += len(checks)
    assert total > 6000
    print(f"ACCEPTANCE #4 PASS - {total} windows verified with "
          f"{probes} probes, worst boundary error {worst:.5f} ns "
          f"(tolerance 0.01)")


def test_c5_late_bit_sets_shrink_monotonically():
    """200 random offset pairs per the fixed spread model: raising the
    offset never adds a late bit, for any class, latch, or field."""

    rng = random.Random(0x10AD5)
    classes = sorted({ic for ic, _l in TIMING.crit_ns})
    latches = sorted({l for _ic, l in TIMING.crit_ns})
    lo_dom = TIMING.min_glitch_ns
    hi_dom = TIMING.clock_period_ns - 1e-6
    for _ in range(200):
        ic = classes[rng.randrange(len(classes))]
        latch = latches[rng.randrange(len(latches))]
        o1, o2 = sorted(lo_dom + rng.random() * (hi_dom - lo_dom)
                        for _ in range(2))
        for fname in TIMING.field_factors[latch]:
            late1 = set(TIMING.late_bits(ic, latch, fname, o1))
            late2 = set(TIMING.late_bits(ic, latch, fname, o2))
            assert late2 <= late1, (ic, latch, fname, o1, o2)
    print("ACCEPTANCE #5 PASS - 200 offset pairs, late-bit sets are "
          "monotone under offset increase")


def test_c6_encoder_round_trips_the_frozen_corpus():
    """Assembler and decoder agree with the hand-derived corpus."""

    for text, word in CORPUS:
        prog = assemble(text + "\n")
        assert prog.words()[0] == word, text
        d = decode(word)
        assert reencode(d) == word, text
        assert disassemble(d) == text, text
    d = decode(0x00032283)
    assert (d.mnemonic, d.rd, d.rs1, d.imm) == ("lw", 5, 6, 0)
    print(f"ACCEPTANCE #6 PASS - {len(CORPUS)} corpus encodings plus "
          f"0x00032283 round-trip exactly")


# the C7 report.json and records.csv, frozen
C7_REPORT_SHA256 = \
    "fc1c15cb9d1e71928f20fa2580d8afeb1f74c386f14aab2320f582a2e33ec437"
C7_CSV_SHA256 = \
    "2a3424b59c39c4040170ad7d69b7ecfe14a84ae7311ec1a9320ee4ea123a886c"


def test_c7_reports_are_byte_identical_across_worker_counts(tmp_path):
    """A 10033-point sweep produces the same report.json and records.csv
    whether it runs in one process or is split across eight."""

    prog = workload_program("mb_alu_imm")
    plan, golden = build_plan(prog, TIMING, offsets=(1.0, 9.82, 0.07),
                              label="mb_alu_imm")
    assert plan.points == 10033
    solo = run_campaign(plan, golden, jobs=1)
    split = run_campaign(plan, golden, jobs=8)
    j1, j8 = solo.to_json(), split.to_json()
    (tmp_path / "solo.json").write_text(j1)
    (tmp_path / "split.json").write_text(j8)
    assert (tmp_path / "solo.json").read_bytes() == \
        (tmp_path / "split.json").read_bytes()
    assert solo.to_csv() == split.to_csv()
    digest = hashlib.sha256(j1.encode()).hexdigest()
    assert digest == C7_REPORT_SHA256
    assert hashlib.sha256(solo.to_csv().encode()).hexdigest() == \
        C7_CSV_SHA256
    print(f"ACCEPTANCE #7 PASS - {plan.points} injections, jobs=1 and "
          f"jobs=8 reports byte-identical (sha256 {digest[:16]})")


def test_c8_classifier_runs_correctly_for_every_stimulus():
    """Guest network agrees with the host reference on all 32 inputs."""

    correct = 0
    for i, x in enumerate(MODEL.inputs):
        gold = run_golden(bnn_program(input_index=i))
        ref = reference_bnn_forward(MODEL, x)
        assert gold.status == "HALTED"
        assert gold.state.output_log == [ref.winner], i
        correct += 1
    for i in (0, 9, 21, 31):
        run = run_pipeline(bnn_program(input_index=i),
                           max_cycles=100_000)
        assert run.arch.output_log == \
            [reference_bnn_forward(MODEL, MODEL.inputs[i]).winner]
    assert correct == 32
    print("ACCEPTANCE #8 PASS - classifier guest matches host reference "
          "32/32 (pipeline spot-checked on 4)")
