"""Victim programs: the binarized classifier and the class microbenches."""

import hashlib
import json
from pathlib import Path

import pytest

from glitchbench.isa import IClass, decode
from glitchbench.machine import run_golden
from glitchbench.pipeline import run_pipeline
from glitchbench.workloads import (
    N_HIDDEN, N_INPUTS, bnn_program, generate_bnn_asm, make_bnn_model,
    reference_bnn_forward, workload_names, workload_program, xnor_popcount,
)

FIXTURES = Path(__file__).parent.parent / "src" / "glitchbench" / "fixtures"

MODEL = make_bnn_model()


def test_model_is_deterministic():
    again = make_bnn_model()
    assert again == MODEL
    assert len(MODEL.w1) == 16 and len(MODEL.w2) == 10
    assert len(MODEL.inputs) == N_INPUTS
    assert all(0 <= w < 1 << 64 for w in MODEL.w1)
    assert all(0 <= w < 1 << 16 for w in MODEL.w2)


def test_many_inputs_sit_near_a_threshold():
    # the whole point of the threshold pinning: marginal activations
    near = sum(
        1 for x in MODEL.inputs
        if any(abs(xnor_popcount(x, MODEL.w1[k], 64) - MODEL.thr1[k]) <= 1
               for k in range(N_HIDDEN))
    )
    assert near >= 8


def test_fixture_files_regenerate_byte_identical():
    assert (FIXTURES / "bnn.s").read_text() == generate_bnn_asm(MODEL)
    inputs = FIXTURES / "bnn_inputs.json"
    assert hashlib.sha256(inputs.read_bytes()).hexdigest() == \
        "1b1256a12674456e1f872fce5c148e55cf839c783301cf6b2941f99e79bff5c4"
    for row in json.loads(inputs.read_text())["cases"]:
        assert int(row["input"], 16) == MODEL.inputs[row["index"]]


def test_fixture_winners_match_live_reference():
    cases = json.loads((FIXTURES / "bnn_inputs.json").read_text())["cases"]
    assert len(cases) == N_INPUTS
    for row in cases:
        ref = reference_bnn_forward(MODEL, int(row["input"], 16))
        assert ref.winner == row["winner"]
        assert ref.hidden == int(row["hidden"], 16)


def test_guest_matches_host_on_all_inputs():
    for i, x in enumerate(MODEL.inputs):
        gold = run_golden(bnn_program(input_index=i))
        assert gold.status == "HALTED", i
        assert gold.state.output_log == [reference_bnn_forward(MODEL, x).winner]


@pytest.mark.parametrize("idx", [0, 7, 19])
def test_pipeline_agrees_with_reference(idx):
    run = run_pipeline(bnn_program(input_index=idx), max_cycles=100_000)
    assert run.status == "HALTED"
    ref = reference_bnn_forward(MODEL, MODEL.inputs[idx])
    assert run.arch.output_log == [ref.winner]


def test_inner_loop_reloads_weights_every_neuron():
    prog = bnn_program(input_index=0)
    gold = run_golden(prog)
    loop = prog.symbols["l1_loop"]
    # three loads at the top of the loop body, each retired once per neuron
    for pc in (loop, loop + 4, loop + 8):
        hits = [ev for ev in gold.events if ev.pc == pc]
        assert len(hits) == N_HIDDEN
        assert all(ev.mnemonic == "lw" for ev in hits)
    cmp_hits = sum(1 for ev in gold.events if ev.pc == prog.symbols["l1_cmp"])
    assert cmp_hits == N_HIDDEN


def test_code_stays_clear_of_data_region():
    prog = bnn_program()
    code_end = max(s.end for s in prog.segments if s.base < 0x400)
    assert code_end <= 0x400


@pytest.mark.parametrize("iclass", sorted(c.name for c in IClass))
def test_microbench_runs_and_locksteps(iclass):
    prog = workload_program(f"mb_{iclass.lower()}")
    gold = run_golden(prog)
    assert gold.status == "HALTED"
    run = run_pipeline(prog, max_cycles=5_000)
    assert run.status == "HALTED"
    assert run.cycles < 200
    assert run.arch.same_arch(gold.state)
    assert [(e.pc, e.reg_write, e.mem_write, e.output) for e in run.retires] \
        == [(e.pc, e.reg_write, e.mem_write, e.output) for e in gold.events]


@pytest.mark.parametrize("iclass", sorted(c.name for c in IClass))
def test_microbench_leans_on_its_class(iclass):
    gold = run_golden(workload_program(f"mb_{iclass.lower()}"))
    counts = {}
    for ev in gold.events:
        if ev.raw:
            d = decode(ev.raw)
            counts[d.iclass.name] = counts.get(d.iclass.name, 0) + 1
    assert counts.get(iclass, 0) >= 4, counts


def test_workload_registry():
    names = workload_names()
    assert names[0] == "bnn" and len(names) == 10
    with pytest.raises(KeyError):
        workload_program("mb_quantum")
    with pytest.raises(ValueError):
        workload_program("mb_load", input_index=1)
    for index in (0, 31):
        prog = workload_program("bnn", input_index=index)
        words, addr = prog.words(), prog.symbols["input_data"]
        assert words[addr] | words[addr + 4] << 32 == MODEL.inputs[index]
