"""Victim programs for fault-injection studies.

Two families:

* a binarized neural network (64-2x16-10, xnor/popcount) whose inner
  loop reloads weights and thresholds from memory every neuron, making
  decode-stage corruption observable as misclassification, and
* one small microbenchmark per instruction class, used to exercise a
  single latch/class pair when calibrating or verifying windows.

Everything here is generated from fixed seeds so the shipped fixture
files can be regenerated byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .asm import Program, assemble
from .isa import IClass
from .machine import OUTPUT_PORT

BNN_SEED = 0xC0FFEE
N_INPUT_BITS = 64
N_HIDDEN = 16
N_CLASSES = 10
N_INPUTS = 32

# data placement inside the guest image
L1_BASE = 0x400
INPUT_BASE = 0x600
INPUT_SYMBOL = "input_data"


@dataclass(frozen=True)
class BnnModel:
    """Weights and thresholds, all plain ints (bit i = input bit i)."""

    w1: tuple[int, ...]      # 16 x 64-bit
    thr1: tuple[int, ...]    # 16 popcount thresholds
    w2: tuple[int, ...]      # 10 x 16-bit
    thr2: tuple[int, ...]    # 10 margin offsets
    inputs: tuple[int, ...]  # 32 x 64-bit stimulus vectors


@dataclass(frozen=True)
class BnnResult:
    hidden: int
    margins: tuple[int, ...]
    winner: int


def xnor_popcount(a: int, b: int, width: int) -> int:
    """Matching-bit count of two width-bit vectors."""

    mask = (1 << width) - 1
    return (~(a ^ b) & mask).bit_count()


def make_bnn_model(seed: int = BNN_SEED) -> BnnModel:
    rng = random.Random(seed)
    w1 = [rng.getrandbits(N_INPUT_BITS) for _ in range(N_HIDDEN)]
    w2 = [rng.getrandbits(N_HIDDEN) for _ in range(N_CLASSES)]
    inputs = [rng.getrandbits(N_INPUT_BITS) for _ in range(N_INPUTS)]
    # Start at the midpoint, then pin the first eight neurons exactly on
    # the match count of one stimulus each.  Those inputs then sit right
    # on the fire/no-fire edge, so single-bit upsets flip hidden bits.
    thr1 = [N_INPUT_BITS // 2] * N_HIDDEN
    for k in range(8):
        thr1[k % N_HIDDEN] = xnor_popcount(inputs[k], w1[k % N_HIDDEN],
                                           N_INPUT_BITS)
    thr2 = [rng.randrange(4, 13) for _ in range(N_CLASSES)]
    return BnnModel(tuple(w1), tuple(thr1), tuple(w2), tuple(thr2),
                    tuple(inputs))


def reference_bnn_forward(model: BnnModel, x: int) -> BnnResult:
    """Host-side forward pass; the oracle the guest must reproduce."""

    hidden = 0
    for k in range(N_HIDDEN):
        if xnor_popcount(x, model.w1[k], N_INPUT_BITS) >= model.thr1[k]:
            hidden |= 1 << k
    margins = []
    best = None
    winner = 0
    for c in range(N_CLASSES):
        m = xnor_popcount(hidden, model.w2[c], N_HIDDEN) - model.thr2[c]
        margins.append(m)
        if best is None or m > best:
            best, winner = m, c
    return BnnResult(hidden, tuple(margins), winner)


def generate_bnn_asm(model: BnnModel, stimulus: int = 0) -> str:
    """Emit the guest program with the 64-bit `stimulus` as its input
    words, low word first."""

    lines = [
        "# binarized 64-16-10 classifier, xnor/popcount",
        "# layer 1 reloads w_lo/w_hi/thr from memory every neuron",
        "",
        "    li x3, input_data",
        "    lw x5, 0(x3)",
        "    lw x6, 4(x3)",
        "    addi x7, x0, 0",          # neuron index
        "    addi x9, x0, 0",          # hidden bits
        "    li x8, l1_weights",
        f"    addi x21, x0, {N_HIDDEN}",
        "l1_loop:",
        "    lw x16, 0(x8)",
        "    lw x17, 4(x8)",
        "    lw x18, 8(x8)",
        "    xor x16, x16, x5",
        "    xori x16, x16, -1",
        "    xor x17, x17, x6",
        "    xori x17, x17, -1",
        "    mv x10, x16",
        "    jal x1, popcount",
        "    mv x19, x11",
        "    mv x10, x17",
        "    jal x1, popcount",
        "    add x19, x19, x11",
        "l1_cmp:",
        "    blt x19, x18, l1_skip",   # matches < thr: hidden bit stays 0
        "    addi x20, x0, 1",
        "    sll x20, x20, x7",
        "    or x9, x9, x20",
        "l1_skip:",
        "    addi x8, x8, 12",
        "    addi x7, x7, 1",
        "    bne x7, x21, l1_loop",
        "",
        "    li x8, l2_weights",
        "    addi x15, x0, 0",          # class index
        "    li x13, -1000",            # best margin so far
        "    addi x14, x0, 0",          # best class
        f"    addi x21, x0, {N_CLASSES}",
        "    lui x20, 16",
        "    addi x20, x20, -1",        # 0xffff
        "l2_loop:",
        "    lw x16, 0(x8)",
        "    lw x18, 4(x8)",
        "    xor x16, x16, x9",
        "    xori x16, x16, -1",
        "    and x10, x16, x20",
        "    jal x1, popcount",
        "l2_cmp:",
        "    sub x19, x11, x18",
        "    bge x13, x19, l2_skip",    # strict >: ties keep lower class
        "    mv x13, x19",
        "    mv x14, x15",
        "l2_skip:",
        "    addi x8, x8, 8",
        "    addi x15, x15, 1",
        "    bne x15, x21, l2_loop",
        "",
        f"    li x22, {OUTPUT_PORT:#x}",
        "    sw x14, 0(x22)",
        "    ebreak",
        "",
        "# x10 -> x11, clobbers x12; shift-and-mask with early exit",
        "popcount:",
        "    addi x11, x0, 0",
        "pc_loop:",
        "    andi x12, x10, 1",
        "    add x11, x11, x12",
        "    srli x10, x10, 1",
        "    bne x10, x0, pc_loop",
        "    ret",
        "",
        f".org {L1_BASE:#x}",
        "l1_weights:",
    ]
    for k in range(N_HIDDEN):
        lo = model.w1[k] & 0xFFFFFFFF
        hi = (model.w1[k] >> 32) & 0xFFFFFFFF
        lines.append(f"    .word {lo:#010x}")
        lines.append(f"    .word {hi:#010x}")
        lines.append(f"    .word {model.thr1[k]}")
    lines.append("l2_weights:")
    for c in range(N_CLASSES):
        lines.append(f"    .word {model.w2[c]:#06x}")
        lines.append(f"    .word {model.thr2[c]}")
    lines += [
        f".org {INPUT_BASE:#x}",
        f"{INPUT_SYMBOL}:",
        f"    .word {stimulus & 0xFFFFFFFF}",
        f"    .word {stimulus >> 32 & 0xFFFFFFFF}",
        "",
    ]
    return "\n".join(lines)


def bnn_program(model: BnnModel | None = None, *,
                input_index: int | None = None) -> Program:
    model = model or make_bnn_model()
    stimulus = 0
    if input_index is not None:
        if not 0 <= input_index < len(model.inputs):
            raise ValueError(f"bnn input index {input_index} is outside "
                             f"0..{len(model.inputs) - 1}")
        stimulus = model.inputs[input_index]
    return assemble(generate_bnn_asm(model, stimulus))


# ---------------- microbenchmarks ----------------

def _out_and_halt(reg: str) -> list[str]:
    return [
        f"    li x28, {OUTPUT_PORT:#x}",
        f"    sw {reg}, 0(x28)",
        "    ebreak",
    ]


def _mb_alu_reg() -> list[str]:
    return [
        "    addi x5, x0, 911",
        "    addi x6, x0, 382",
        "    addi x14, x0, 6",
        "loop:",
        "    add x7, x5, x6",
        "    sub x8, x7, x5",
        "    xor x9, x7, x8",
        "    or x10, x9, x5",
        "    and x11, x10, x6",
        "    sltu x12, x11, x7",
        "    sll x13, x7, x12",
        "    add x5, x5, x12",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
        "    add x5, x5, x13",
    ] + _out_and_halt("x5")


def _mb_alu_imm() -> list[str]:
    return [
        "    addi x5, x0, 77",
        "    addi x14, x0, 6",
        "loop:",
        "    addi x5, x5, 13",
        "    xori x6, x5, 42",
        "    ori x7, x6, 257",
        "    andi x8, x7, 1011",
        "    slti x9, x8, 100",
        "    slli x10, x8, 3",
        "    srli x11, x10, 2",
        "    addi x5, x11, 1",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x5")


def _mb_load() -> list[str]:
    rng = random.Random(0x10AD)
    body = [
        "    li x2, 0x400",
        "    addi x5, x0, 0",
        "    addi x6, x0, 0",
        "    addi x14, x0, 8",
        "loop:",
        "    add x7, x2, x6",
        "    lw x8, 0(x7)",
        "    lh x9, 0(x7)",
        "    lbu x10, 2(x7)",
        "    add x5, x5, x8",
        "    add x5, x5, x9",
        "    add x5, x5, x10",
        "    addi x6, x6, 4",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x5") + [".org 0x400"]
    body += [f"    .word {rng.getrandbits(32):#010x}" for _ in range(12)]
    return body


def _mb_store() -> list[str]:
    return [
        "    li x2, 0x400",
        "    addi x5, x0, 291",
        "    addi x6, x0, 0",
        "    addi x14, x0, 8",
        "loop:",
        "    add x7, x2, x6",
        "    sw x5, 0(x7)",
        "    sh x5, 32(x7)",
        "    sb x5, 64(x7)",
        "    lw x8, 0(x7)",
        "    add x5, x5, x8",
        "    addi x6, x6, 4",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x5")


def _mb_branch() -> list[str]:
    return [
        "    addi x5, x0, 0",
        "    addi x6, x0, 1",
        "    addi x14, x0, 8",
        "loop:",
        "    beq x6, x0, over1",
        "    addi x5, x5, 3",
        "over1:",
        "    bne x6, x0, over2",
        "    addi x5, x5, 100",
        "over2:",
        "    blt x14, x5, over3",
        "    addi x5, x5, 7",
        "over3:",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x5")


def _mb_jump() -> list[str]:
    return [
        "    addi x5, x0, 0",
        "    addi x14, x0, 5",
        "    li x7, bump",
        "loop:",
        "    jal x1, bump",
        "    jalr x1, 0(x7)",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
        "    j done",
        "bump:",
        "    addi x5, x5, 2",
        "    ret",
        "done:",
    ] + _out_and_halt("x5")


def _mb_upper() -> list[str]:
    return [
        "    addi x14, x0, 6",
        "    addi x5, x0, 0",
        "loop:",
        "    lui x6, 18",
        "    auipc x7, 0",
        "    lui x8, 0xFF00",
        "    add x5, x5, x6",
        "    add x5, x5, x7",
        "    srli x9, x8, 16",
        "    add x5, x5, x9",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x5")


def _mb_muldiv() -> list[str]:
    return [
        "    addi x5, x0, 77",
        "    addi x6, x0, 13",
        "    addi x14, x0, 4",
        "loop:",
        "    mul x7, x5, x6",
        "    andi x7, x7, 2047",
        "    mulhu x8, x7, x6",
        "    mulh x9, x7, x5",
        "    add x5, x5, x7",
        "    andi x5, x5, 1023",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
        "    addi x5, x5, 3",
        "    div x10, x5, x6",
        "    rem x11, x5, x6",
        "    mul x12, x10, x6",
        "    add x5, x12, x11",
    ] + _out_and_halt("x5")


def _mb_system() -> list[str]:
    return [
        "    addi x14, x0, 3",
        "loop:",
        "    fence",
        "    fence",
        "    addi x14, x14, -1",
        "    bne x14, x0, loop",
    ] + _out_and_halt("x14")


_MB_BUILDERS = {
    IClass.ALU_REG: _mb_alu_reg,
    IClass.ALU_IMM: _mb_alu_imm,
    IClass.LOAD: _mb_load,
    IClass.STORE: _mb_store,
    IClass.BRANCH: _mb_branch,
    IClass.JUMP: _mb_jump,
    IClass.UPPER: _mb_upper,
    IClass.MULDIV: _mb_muldiv,
    IClass.SYSTEM: _mb_system,
}


def microbench(iclass: IClass | str) -> str:
    """Short self-halting program leaning on one instruction class."""

    if isinstance(iclass, str):
        iclass = IClass[iclass.upper()]
    lines = [f"# {iclass.name.lower()} microbenchmark", ""]
    lines += _MB_BUILDERS[iclass]()
    lines.append("")
    return "\n".join(lines)


def workload_names() -> list[str]:
    return ["bnn"] + [f"mb_{c.name.lower()}" for c in _MB_BUILDERS]


def workload_source(name: str) -> str:
    """Assembly text for a named workload ('bnn' or 'mb_<class>')."""

    if name == "bnn":
        return generate_bnn_asm(make_bnn_model())
    if name.startswith("mb_"):
        try:
            return microbench(name[3:])
        except KeyError:
            pass
    raise KeyError(f"unknown workload '{name}'")


def workload_program(name: str, *, input_index: int | None = None) -> Program:
    if name == "bnn":
        return bnn_program(input_index=input_index)
    if input_index is not None:
        raise ValueError("only the bnn workload takes an input index")
    return assemble(workload_source(name))


def bnn_fixture_payload(model: BnnModel | None = None) -> dict:
    """JSON fixture body: stimuli plus host-reference outcomes."""

    model = model or make_bnn_model()
    rows = []
    for i, x in enumerate(model.inputs):
        ref = reference_bnn_forward(model, x)
        rows.append({
            "index": i,
            "input": f"{x:#018x}",
            "hidden": f"{ref.hidden:#06x}",
            "winner": ref.winner,
        })
    return {
        "seed": f"{BNN_SEED:#x}",
        "layout": "64-16-10 xnor/popcount",
        "cases": rows,
    }


def render_bnn_fixture_json(model: BnnModel | None = None) -> str:
    return json.dumps(bnn_fixture_payload(model), indent=2,
                      sort_keys=True) + "\n"
