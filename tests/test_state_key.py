"""`Pipeline.state_key()` is the campaign's memo key, so each part it keys
is pinned here by two states whose keys differ in that part alone and
whose futures differ, and equal keys at different cycles are pinned to
have the same future, shifted by the difference."""

import dataclasses
from functools import cache

import pytest

from glitchbench.campaign import summarize
from glitchbench.glitch import CorruptionPolicy, GlitchSpec, IllegalPolicy
from glitchbench.machine import MAX_CYCLES
from glitchbench.pipeline import Pipeline, run_pipeline
from glitchbench.timing import reference_timing
from glitchbench.workloads import workload_program

TM = reference_timing()
SB, SR, ZL = (CorruptionPolicy.STALE_BITS, CorruptionPolicy.STALE_REGISTER,
              CorruptionPolicy.ZERO_LATE_BITS)
NR, TR = IllegalPolicy.NOP_REPLACE, IllegalPolicy.TRAP

# the parts of a key, in order; a latch's part is its `_slot_key`, the
# latch value and these meta fields
KEY_PARTS = ("if_id", "id_ex", "ex_wb", "fetch_pc", "fetch_stopped",
             "ex_remaining", "illegal_policy", "pc", "regs", "mem",
             "output_log", "halt_cause")
META_FIELDS = ("pc", "trap_cause", "fault_cause", "halt", "next_pc",
               "word_corrupted", "mem_write", "output")

# part -> two states and the part of their futures that differs. A state
# is a glitched point (program, corruption policy, illegal-word policy,
# glitch cycle, offset ns, cycles run after the glitched one, or None for
# the glitched edge itself) or a glitch-free run (program, cycle); a third
# element edits the state. Each meta field is pinned in the latch whose
# consumer reads it. The retire and final-pc futures are for parts that
# `summarize` does not read.
PAIRS = {
    "if_id.value": (("mb_alu_reg", SB, NR, 77, 5.0, 0),
                    ("mb_alu_reg", SB, NR, 77, 5.5, 0), "summary"),
    "id_ex.value": (("mb_alu_reg", SB, NR, 1, 1.5, 0),
                    ("mb_alu_reg", SB, NR, 1, 7.0, 0), "summary"),
    "ex_wb.value": (("mb_alu_reg", SB, NR, 1, 1.5, 1),
                    ("mb_alu_reg", SB, NR, 1, 7.0, 1), "summary"),
    "ex_remaining": (("mb_muldiv", SB, NR, 11, 1.0, 3),
                     ("mb_muldiv", SB, NR, 11, 1.0, 4), "summary"),
    "illegal_policy": (("mb_load", SB, NR, 67, 7.5, 0),
                       ("mb_load", SB, TR, 67, 7.5, 0), "summary"),
    "regs": (("mb_alu_reg", SB, NR, 1, 1.0, 13),
             ("mb_alu_reg", SB, NR, 1, 1.0, 25), "summary"),
    "mem": (("mb_alu_reg", SB, NR, 74, 2.5, 2),
            ("mb_alu_reg", SB, NR, 74, 6.0, 2), "summary"),
    "output_log": (("mb_alu_reg", SB, NR, 4, 1.5, 76),
                   ("mb_alu_reg", SB, NR, 77, 1.0, 3), "summary"),
    "halt_cause": (("mb_alu_reg", SB, NR, 14, 4.0, 0),
                   ("mb_alu_reg", SB, NR, 14, 4.0, 1), "summary"),
    "ex_wb.pc": (("mb_branch", SB, NR, 21, 4.0, 0),
                 ("mb_branch", SR, NR, 19, 1.0, 0), "summary"),
    "ex_wb.trap_cause": (("mb_alu_reg", SB, NR, 77, 7.0, 1),
                         ("mb_alu_reg", ZL, NR, 77, 8.0, 1), "summary"),
    "ex_wb.mem_write": (("mb_store", SB, NR, 9, 3.0, 0),
                        ("mb_store", SB, NR, 9, 3.5, 0), "retires"),
    # no pair of reached states differs in these parts alone: one state
    # and a fork of it with that single attribute changed
    "fetch_pc": (("mb_alu_imm", 10), ("mb_alu_imm", 10, ("fetch_pc", 0x2C)),
                 "summary"),
    "fetch_stopped": (("mb_alu_imm", 10),
                      ("mb_alu_imm", 10, ("fetch_stopped", True)),
                      "summary"),
    "if_id.fault_cause": (
        ("mb_alu_imm", 10),
        ("mb_alu_imm", 10, ("if_id_meta.fault_cause", "FETCH_FAULT")),
        "summary"),
    "if_id.word_corrupted": (
        ("mb_alu_imm", SB, NR, 8, 3.0, None),
        ("mb_alu_imm", SB, NR, 8, 3.0, None,
         ("if_id_meta.word_corrupted", False)), "summary"),
    "ex_wb.halt": (("mb_alu_imm", 78),
                   ("mb_alu_imm", 78, ("ex_wb_meta.halt", None)), "summary"),
    "ex_wb.next_pc": (("mb_alu_imm", 78),
                      ("mb_alu_imm", 78, ("ex_wb_meta.next_pc", 0x80)),
                      "final pc"),
    "ex_wb.output": (("mb_alu_imm", 77),
                     ("mb_alu_imm", 77, ("ex_wb_meta.output", None)),
                     "retires"),
    # only a run that never retires again keeps its pc: mb_system's
    # halting EBREAK, fetch stopped behind it, dropped from EX_WB
    "pc": (("mb_system", 23, ("ex_wb.valid", 0)),
           ("mb_system", 23, ("ex_wb.valid", 0), ("arch.pc", 0x40)),
           "final pc"),
}


@cache
def _budget(name: str) -> int:
    return run_pipeline(workload_program(name)).cycles * 4


def _edit(p: Pipeline, path: str, value) -> None:
    owner, _, attr = path.rpartition(".")
    if owner == "arch":
        setattr(p.arch, attr, value)
    elif owner:  # a latch value or meta, rebuilt with one field changed
        setattr(p, owner, getattr(p, owner)._replace(**{attr: value}))
    else:
        setattr(p, attr, value)


def _state(spec: tuple) -> Pipeline:
    edits = [e for e in spec if isinstance(e, tuple)]
    spec = spec[:len(spec) - len(edits)]
    if len(spec) == 2:
        name, cycle = spec
        p = Pipeline(workload_program(name), timing=TM)
        p.run(cycle)
    else:
        name, policy, illegal, cycle, offset, after = spec
        base = Pipeline(workload_program(name), timing=TM)
        base.run(cycle)
        p = base.glitched(GlitchSpec(cycle, offset, policy, illegal))
        assert any(e.changed for e in p.corruptions), spec
        if after is not None:
            p.run(cycle + 1 + after)
            assert p.cycle == cycle + 1 + after, spec
    for path, value in edits:
        _edit(p, path, value)
    return p


def _future(p: Pipeline, budget: int) -> dict:
    """What `p` does from now on, within `budget` more cycles: its summary
    with cycles counted from now, its final pc, and each retire without
    its labels (raw word and mnemonic)."""

    start = p.cycle
    p = p.fork()  # a fork's logs start empty
    p.run(start + budget)
    summary = summarize(p.result())
    return {"summary": dataclasses.replace(summary,
                                           cycles=summary.cycles - start),
            "final pc": p.arch.pc,
            "retires": [e[:2] + e[4:] for e in p.retires]}


def _without(key: tuple, part: str) -> tuple:
    """`key` with `part` ("halt_cause", "ex_wb.value", "ex_wb.next_pc", ...)
    replaced by a marker."""

    key = list(key)
    name, _, field = part.partition(".")
    i = KEY_PARTS.index(name)
    if not field:
        key[i] = ...
    else:
        value, meta = key[i]
        if field == "value":
            value = ...
        else:
            j = META_FIELDS.index(field)
            meta = meta[:j] + (...,) + meta[j + 1:]
        key[i] = (value, meta)
    return tuple(key)


def test_the_pairs_pin_every_part_of_the_key():
    p = Pipeline(workload_program("mb_alu_imm"))
    p.run(10)
    assert len(p.state_key()) == len(KEY_PARTS)
    assert len(p.state_key()[0][1]) == len(META_FIELDS)
    latch_parts = {f"{latch}.{field}" for latch in KEY_PARTS[:3]
                   for field in ("value",) + META_FIELDS}
    pinned = {part.split(".")[1] for part in PAIRS if part in latch_parts}
    assert pinned == {"value", *META_FIELDS}
    assert {part.split(".")[0] for part in PAIRS} == set(KEY_PARTS)


@pytest.mark.parametrize("part", PAIRS)
def test_each_key_part_tells_apart_two_states_with_different_futures(part):
    a_spec, b_spec, differs = PAIRS[part]
    a, b = _state(a_spec), _state(b_spec)
    key_a, key_b = a.state_key(), b.state_key()
    assert key_a != key_b
    assert _without(key_a, part) == _without(key_b, part)
    name = a_spec[0]
    future_a, future_b = _future(a, _budget(name)), _future(b, _budget(name))
    assert future_a[differs] != future_b[differs]


@pytest.mark.parametrize("glitch, offset, c, g", [
    (3016, 1.0, 3023, 3017),   # rejoins 6 cycles behind the golden run
    (3010, 1.0, 3223, 3419),   # and 196 cycles ahead of it
])
def test_a_point_that_rejoins_the_golden_run_has_its_future_shifted(
        glitch, offset, c, g):
    """A `bnn` (stimulus 0) point glitched at cycle `glitch` under
    STALE_BITS and TRAP has, at cycle c, the key the glitch-free run has
    at cycle g. From there it retires the golden pcs and ends in the
    golden state, c - g cycles later."""

    prog = workload_program("bnn", input_index=0)
    golden = Pipeline(prog, timing=TM)
    golden.run(g)
    base = Pipeline(prog, timing=TM)
    base.run(glitch)
    point = base.glitched(GlitchSpec(glitch, offset, SB, TR))
    assert any(e.changed for e in point.corruptions)
    point.run(c)
    assert (point.cycle, golden.cycle) == (c, g)
    assert point.state_key() == golden.state_key()
    point, golden = point.fork(), golden.fork()  # logs from here on
    point.run(MAX_CYCLES)
    golden.run(MAX_CYCLES)
    after_point, after_golden = summarize(point.result()), \
        summarize(golden.result())
    assert after_point.pcs == after_golden.pcs
    assert after_golden.status == "HALTED"
    assert after_golden.cycles == run_pipeline(prog).cycles
    assert after_point == dataclasses.replace(
        after_golden, cycles=after_golden.cycles + (c - g))
