import math
import random

from hypothesis import given, settings, strategies as st

from glitchbench.glitch import (CorruptionEvent, CorruptionPolicy, GlitchSpec,
                                IllegalPolicy, plan_effect)
from glitchbench.isa import IClass
from glitchbench.latches import LATCH_FIELDS, LATCH_TYPE, LATCHES, bubble
from glitchbench.pipeline import Pipeline
from glitchbench.timing import reference_timing
from glitchbench.workloads import workload_program

TM = reference_timing()


def cap(latch, iclass, incoming, previous):
    """(latch, capture) for plan_effect: (iclass, incoming, previous, pc)."""

    inc = bubble(latch)._replace(**incoming)
    prev = bubble(latch)._replace(**previous)
    return latch, (iclass, inc, prev, getattr(inc, "pc", None))


def values(events):
    return {e.field: e.corrupted for e in events}


def plan(spec, captures):
    """plan_effect over `captures`, checking that each captured value is
    the incoming value with every event's field replaced; latch -> events."""

    caps = dict(captures)
    effects = plan_effect(spec, caps, TM)
    for latch, (captured, events) in effects.items():
        assert captured == caps[latch][1]._replace(**values(events))
    return {latch: events for latch, (_, events) in effects.items()}


def test_safe_offset_touches_nothing():
    c = cap("IF_ID", "LOAD", {"instr_word": 0x00032283, "pc": 0x40, "valid": 1},
            {"instr_word": 0x13, "pc": 0x3C, "valid": 1})
    spec = GlitchSpec(cycle=5, offset_ns=9.5)
    assert plan(spec, [c]) == {}


def test_exactly_the_fresh_driven_captures_corrupt_at_the_floor():
    """At min_glitch_ns every capture of every class has late bits, so on
    every cycle the corrupted latches are exactly the captures the profile
    marks fresh and driven. A held latch (a DIV keeping EX in mb_muldiv, a
    load-use stall in mb_store; mb_load has none) and a reset bubble come
    through clean."""

    held = {}
    for name in ("mb_muldiv", "mb_load", "mb_store"):
        base = Pipeline(workload_program(name), timing=TM)
        held[name] = 0
        while not base.arch.halted:
            profile = base.captures
            held[name] += (False, None) in profile.values()
            expected = {latch for latch, (fresh, iclass) in profile.items()
                        if fresh and iclass is not None}
            fork = base.glitched(GlitchSpec(base.cycle, TM.min_glitch_ns))
            assert {e.latch for e in fork.corruptions} == expected, \
                (name, base.cycle)
            base.clock()
    assert held == {"mb_muldiv": 62, "mb_load": 0, "mb_store": 8}


def test_stale_bits_merges_previous_value():
    clean = 0x00032283  # lw
    prev = 0xFFFFFFFF
    c = cap("IF_ID", "LOAD", {"instr_word": clean, "pc": 0x40, "valid": 1},
            {"instr_word": prev, "pc": 0x3C, "valid": 1})
    # between the pc threshold (8.6*0.75+0.2) and the word threshold: only
    # instr_word bits can be late
    spec = GlitchSpec(3, 8.3, CorruptionPolicy.STALE_BITS)
    eff = plan(spec, [c])
    assert set(eff) == {"IF_ID"}
    events = eff["IF_ID"]
    assert [e.field for e in events] == ["instr_word"]
    e = events[0]
    assert (e.cycle, e.latch, e.iclass, e.pc) == (3, "IF_ID", "LOAD", 0x40)
    late = TM.late_bits("LOAD", "IF_ID", "instr_word", 8.3)
    assert e.late_bits == late
    mask = 0
    for b in late:
        mask |= 1 << b
    assert e.clean == clean
    assert e.corrupted == (clean & ~mask) | (prev & mask)
    assert not e.ghost and not e.bubble_injected


def test_zero_late_bits_clears():
    clean = 0xFFFFFFFF
    c = cap("IF_ID", "LOAD", {"instr_word": clean, "pc": 0, "valid": 1},
            {"instr_word": 0, "pc": 0, "valid": 1})
    spec = GlitchSpec(3, 8.3, CorruptionPolicy.ZERO_LATE_BITS)
    eff = plan(spec, [c])
    e = eff["IF_ID"][0]
    mask = 0
    for b in e.late_bits:
        mask |= 1 << b
    assert e.corrupted == clean & ~mask


def test_stale_register_reverts_whole_latch():
    c = cap("ID_EX", "ALU_REG",
            {"control": 0x0100, "rs1_val": 7, "rs2_val": 9, "imm": 0,
             "rd": 3, "pc": 8, "valid": 1},
            {"control": 0x0777, "rs1_val": 1, "rs2_val": 2, "imm": 5,
             "rd": 4, "pc": 4, "valid": 1})
    spec = GlitchSpec(3, 6.0, CorruptionPolicy.STALE_REGISTER)
    eff = plan(spec, [c])
    events = eff["ID_EX"]
    _, (_, _, previous, _) = c
    assert [e.field for e in events] == list(LATCH_TYPE["ID_EX"]._fields)
    assert values(events) == previous._asdict()
    assert any(e.late_bits for e in events)
    assert all(e.pc == 8 for e in events)


def test_ghost_revival_and_bubble_kill():
    # squashed slot (valid_in 0) over a previously valid latch: a deep
    # glitch leaves the valid bit stale at 1 while fields mix
    ghost = cap("IF_ID", "ALU_IMM",
                {"instr_word": 0x00100093, "pc": 0x10, "valid": 0},
                {"instr_word": 0x00208463, "pc": 0x0C, "valid": 1})
    eff = plan(GlitchSpec(7, 1.0, CorruptionPolicy.STALE_BITS), [ghost])
    events = eff["IF_ID"]
    assert all(e.ghost and not e.bubble_injected for e in events)
    assert values(events)["valid"] == 1

    kill = cap("IF_ID", "ALU_IMM",
               {"instr_word": 0x00100093, "pc": 0x10, "valid": 1},
               {"instr_word": 0, "pc": 0x0C, "valid": 0})
    eff = plan(GlitchSpec(7, 1.0, CorruptionPolicy.STALE_BITS), [kill])
    events = eff["IF_ID"]
    assert all(e.bubble_injected and not e.ghost for e in events)
    assert values(events)["valid"] == 0


def test_corruption_recorded_even_when_value_unchanged():
    same = {"instr_word": 0x00000013, "pc": 0x40, "valid": 1}
    c = cap("IF_ID", "ALU_IMM", same, same)
    eff = plan(GlitchSpec(2, 7.5), [c])
    events = eff["IF_ID"]
    assert events
    e = {e.field: e for e in events}["instr_word"]
    assert e.corrupted == e.clean  # stale bits happen to match
    assert not e.changed


def test_selectivity_between_thresholds():
    # LOAD entering decode alongside a MULDIV entering execute: offsets in
    # (8.4, 8.8) must hit only the fetch-side latch
    lw = cap("IF_ID", "LOAD", {"instr_word": 0x00032283, "pc": 8, "valid": 1},
             {"instr_word": 0, "pc": 4, "valid": 1})
    mul = cap("ID_EX", "MULDIV",
              {"control": 0x0101, "rs1_val": 3, "rs2_val": 4, "imm": 0,
               "rd": 5, "pc": 4, "valid": 1},
              {"control": 0, "rs1_val": 0, "rs2_val": 0, "imm": 0,
               "rd": 0, "pc": 0, "valid": 1})
    eff = plan(GlitchSpec(4, 8.6), [lw, mul])
    assert set(eff) == {"IF_ID"}
    eff = plan(GlitchSpec(4, 8.39), [lw, mul])
    assert set(eff) == {"IF_ID", "ID_EX"}
    eff = plan(GlitchSpec(4, 8.8), [lw, mul])
    assert eff == {}


def test_late_set_grows_as_offset_shrinks():
    rng = random.Random(0x61)
    c = cap("ID_EX", "BRANCH",
            {"control": 0x0406, "rs1_val": rng.getrandbits(32),
             "rs2_val": rng.getrandbits(32), "imm": 16, "rd": 0,
             "pc": 0x100, "valid": 1},
            {"control": 0, "rs1_val": 0, "rs2_val": 0, "imm": 0,
             "rd": 0, "pc": 0, "valid": 1})
    prev_sets = None
    for offset in [8.2, 7.0, 5.5, 4.0, 2.5, 1.0]:
        eff = plan(GlitchSpec(0, offset), [c])
        sets = {e.field: set(e.late_bits) for e in eff.get("ID_EX", ())}
        if prev_sets is not None:
            for fname, bits in prev_sets.items():
                assert fname in sets and bits <= sets[fname]
        prev_sets = sets
    assert prev_sets  # deepest offset corrupts something


def test_policy_default_and_spec_fields():
    spec = GlitchSpec(9, 4.25)
    assert spec.policy is CorruptionPolicy.STALE_BITS
    assert spec.illegal_policy is IllegalPolicy.NOP_REPLACE
    assert spec.cycle == 9 and spec.offset_ns == 4.25


def reference_plan(spec, captures, timing):
    """plan_effect written per field from TimingModel.late_bits."""

    timing.check_offset(spec.offset_ns)
    effects = {}
    for latch, (iclass, inc, prev, pc) in captures.items():
        late = {}
        for fname in LATCH_TYPE[latch]._fields:
            bits = timing.late_bits(iclass, latch, fname, spec.offset_ns)
            if bits:
                late[fname] = bits
        if not late:
            continue
        fields = {}
        if spec.policy is CorruptionPolicy.STALE_REGISTER:
            for fname in LATCH_TYPE[latch]._fields:
                fields[fname] = late.get(fname, ()), getattr(prev, fname)
        else:
            for fname, bits in late.items():
                mask = 0
                for b in bits:
                    mask |= 1 << b
                stale = getattr(prev, fname) \
                    if spec.policy is CorruptionPolicy.STALE_BITS else 0
                fields[fname] = \
                    bits, (getattr(inc, fname) & ~mask) | (stale & mask)
        valid_in = inc.valid & 1
        valid_out = fields["valid"][1] & 1 if "valid" in fields else valid_in
        ghost = valid_in == 0 and valid_out == 1
        killed = valid_in == 1 and valid_out == 0
        captured = inc._replace(**{fname: bad
                                   for fname, (_, bad) in fields.items()})
        effects[latch] = captured, tuple(
            CorruptionEvent(spec.cycle, latch, fname, iclass, bits,
                            getattr(inc, fname), bad, ghost, killed, pc)
            for fname, (bits, bad) in fields.items())
    return effects


# every key arrival + setup inside the offset domain, where late sets change
KEYS = sorted({t + TM.setup_ns
               for iclass in (c.value for c in IClass) for latch in LATCHES
               for fname, _ in LATCH_FIELDS[latch]
               for t in TM.bit_arrivals(iclass, latch, fname)
               if TM.min_glitch_ns < t + TM.setup_ns < TM.clock_period_ns})


@st.composite
def latch_values(draw, latch):
    return bubble(latch)._make(draw(st.integers(0, 2**width - 1))
                               for _, width in LATCH_FIELDS[latch])


@st.composite
def captures(draw):
    """Corruptible captures of a random subset of latches, in latch order."""

    out = {}
    for latch in LATCHES:
        if draw(st.booleans()):
            inc = draw(latch_values(latch))
            out[latch] = (draw(st.sampled_from([c.value for c in IClass])),
                          inc, draw(latch_values(latch)),
                          getattr(inc, "pc", None))
    return out


@settings(max_examples=300, deadline=None)
@given(caps=captures(),
       offset=st.sampled_from(KEYS)
       | st.sampled_from(KEYS).map(lambda k: math.nextafter(k, -math.inf))
       | st.floats(TM.min_glitch_ns, TM.clock_period_ns, exclude_max=True),
       policy=st.sampled_from(CorruptionPolicy),
       cycle=st.integers(0, 10_000))
def test_plan_effect_matches_the_per_field_planner(caps, offset, policy,
                                                   cycle):
    spec = GlitchSpec(cycle, offset, policy)
    assert plan_effect(spec, caps, TM) == reference_plan(spec, caps, TM)
