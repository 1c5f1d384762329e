"""Known answers for the ALU and the branch comparator.

The ISS and the pipeline share `machine.alu` and `machine.branch_taken`,
so lockstep runs can no longer catch a wrong result in them. These rows
are literal expectations on edge operands, run through both engines.
"""

import pytest

from glitchbench import isa, machine
from glitchbench.asm import assemble
from glitchbench.pipeline import CONTROL, run_pipeline

# (mnemonic, a, b, expected); b of an immediate form is the sign-extended
# immediate as u32
ALU_ROWS = [
    ("add", 0x7FFFFFFF, 1, 0x80000000),
    ("add", 0xFFFFFFFF, 1, 0),
    ("add", 0, 0, 0),
    ("sub", 0, 1, 0xFFFFFFFF),
    ("sub", 0x80000000, 1, 0x7FFFFFFF),
    ("sll", 1, 31, 0x80000000),
    ("sll", 1, 32, 1),
    ("sll", 1, 33, 2),
    ("sll", 0xFFFFFFFF, 0, 0xFFFFFFFF),
    ("slt", 0x80000000, 0x7FFFFFFF, 1),
    ("slt", 0x7FFFFFFF, 0x80000000, 0),
    ("slt", 0xFFFFFFFF, 0, 1),
    ("slt", 0, 0, 0),
    ("sltu", 0x80000000, 0x7FFFFFFF, 0),
    ("sltu", 0, 0xFFFFFFFF, 1),
    ("sltu", 1, 1, 0),
    ("xor", 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF),
    ("xor", 0, 0, 0),
    ("srl", 0x80000000, 31, 1),
    ("srl", 0x80000000, 32, 0x80000000),
    ("srl", 0xFFFFFFFF, 0, 0xFFFFFFFF),
    ("srl", 0xFFFFFFFF, 63, 1),
    ("sra", 0x80000000, 31, 0xFFFFFFFF),
    ("sra", 0x80000000, 32, 0x80000000),
    ("sra", 0x80000000, 1, 0xC0000000),
    ("sra", 0x7FFFFFFF, 31, 0),
    ("or", 0x80000000, 0x7FFFFFFF, 0xFFFFFFFF),
    ("or", 0, 0, 0),
    ("and", 0xFFFFFFFF, 0x80000000, 0x80000000),
    ("and", 0x7FFFFFFF, 0x80000000, 0),
    ("addi", 0x7FFFFFFF, 1, 0x80000000),
    ("addi", 0, 0xFFFFFFFF, 0xFFFFFFFF),
    ("addi", 0x80000000, 0xFFFFFFFF, 0x7FFFFFFF),
    ("slti", 0x80000000, 0, 1),
    ("slti", 0, 0xFFFFFFFF, 0),
    ("slti", 0xFFFFFFFF, 0, 1),
    ("sltiu", 0, 0xFFFFFFFF, 1),
    ("sltiu", 0xFFFFFFFF, 0xFFFFFFFF, 0),
    ("sltiu", 0, 1, 1),
    ("xori", 0x7FFFFFFF, 0xFFFFFFFF, 0x80000000),
    ("xori", 0, 0, 0),
    ("ori", 0x80000000, 1, 0x80000001),
    ("ori", 0, 0xFFFFFFFF, 0xFFFFFFFF),
    ("andi", 0xFFFFFFFF, 0x7FF, 0x7FF),
    ("andi", 0x80000000, 0xFFFFFFFF, 0x80000000),
    ("slli", 1, 31, 0x80000000),
    ("slli", 0xFFFFFFFF, 0, 0xFFFFFFFF),
    ("srli", 0x80000000, 31, 1),
    ("srli", 0xFFFFFFFF, 0, 0xFFFFFFFF),
    ("srai", 0x80000000, 31, 0xFFFFFFFF),
    ("srai", 0x80000000, 0, 0x80000000),
    ("srai", 0x7FFFFFFF, 31, 0),
]

# (mnemonic, a, b, taken)
BRANCH_ROWS = [
    ("beq", 0, 0, True),
    ("beq", 0xFFFFFFFF, 0xFFFFFFFF, True),
    ("beq", 0x80000000, 0x7FFFFFFF, False),
    ("bne", 0, 0, False),
    ("bne", 0xFFFFFFFF, 0x7FFFFFFF, True),
    ("blt", 0x80000000, 0x7FFFFFFF, True),
    ("blt", 0x7FFFFFFF, 0x80000000, False),
    ("blt", 0xFFFFFFFF, 0, True),
    ("blt", 1, 1, False),
    ("bge", 0x80000000, 0x7FFFFFFF, False),
    ("bge", 0, 0xFFFFFFFF, True),
    ("bge", 1, 1, True),
    ("bltu", 0x80000000, 0x7FFFFFFF, False),
    ("bltu", 0, 0xFFFFFFFF, True),
    ("bltu", 1, 1, False),
    ("bgeu", 0xFFFFFFFF, 0, True),
    ("bgeu", 0x7FFFFFFF, 0x80000000, False),
    ("bgeu", 0, 0, True),
]

# the ALU and branch control words the pipeline carries in ID_EX
CONTROL_WORDS = {
    "add": 0x100, "sub": 0x101, "sll": 0x102, "slt": 0x103, "sltu": 0x104,
    "xor": 0x105, "srl": 0x106, "sra": 0x107, "or": 0x108, "and": 0x109,
    "addi": 0x180, "slti": 0x183, "sltiu": 0x184, "xori": 0x185,
    "ori": 0x188, "andi": 0x189, "slli": 0x182, "srli": 0x186,
    "srai": 0x187,
    "beq": 0x40, "bne": 0x41, "blt": 0x44, "bge": 0x45, "bltu": 0x46,
    "bgeu": 0x47,
}


def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x80000000 else v


def x3_on_both_engines(src: str) -> tuple[int, int]:
    """Run to halt on the ISS, one machine.step at a time, and on the
    pipeline; returns x3 from each."""

    prog = assemble(src)
    state = machine.load_program(prog)
    for _ in range(100):
        machine.step(state)
        if state.halted:
            break
    assert state.halt_cause == "EBREAK"
    run = run_pipeline(prog, max_cycles=200)
    assert run.status == "HALTED" and run.arch.halt_cause == "EBREAK"
    return state.regs[3], run.arch.regs[3]


def test_rows_cover_every_alu_and_branch_mnemonic():
    alu = {m for m, c in isa.CLASS_OF.items()
           if c in (isa.IClass.ALU_REG, isa.IClass.ALU_IMM)}
    branch = {m for m, c in isa.CLASS_OF.items() if c is isa.IClass.BRANCH}
    assert len(alu) == 19 and len(branch) == 6
    assert {r[0] for r in ALU_ROWS} == alu == set(machine.ALU_OP4)
    assert {r[0] for r in BRANCH_ROWS} == branch == set(machine.BRANCH_OP4)
    assert {m: CONTROL[m] for m in CONTROL_WORDS} == CONTROL_WORDS


@pytest.mark.parametrize("mnemonic, a, b, expected", ALU_ROWS)
def test_alu_known_answers(mnemonic, a, b, expected):
    assert machine.alu(machine.ALU_OP4[mnemonic], a, b) == expected
    if isa.CLASS_OF[mnemonic] is isa.IClass.ALU_IMM:
        op = f"{mnemonic} x3, x1, {_signed(b)}"
    else:
        op = f"{mnemonic} x3, x1, x2"
    src = f"li x1, {a}\nli x2, {b}\n{op}\nebreak\n"
    assert x3_on_both_engines(src) == (expected, expected)


@pytest.mark.parametrize("mnemonic, a, b, taken", BRANCH_ROWS)
def test_branch_known_answers(mnemonic, a, b, taken):
    assert machine.branch_taken(machine.BRANCH_OP4[mnemonic], a, b) is taken
    src = (f"li x1, {a}\nli x2, {b}\n{mnemonic} x1, x2, taken\nebreak\n"
           "taken:\naddi x3, x0, 1\nebreak\n")
    assert x3_on_both_engines(src) == (int(taken), int(taken))


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (0xFFFFFFFF, 0),
                                  (0x80000000, 0x7FFFFFFF)])
def test_undefined_op4_codes(a, b):
    # reachable only through a corrupted control word
    assert [machine.alu(op4, a, b) for op4 in range(10, 16)] == [0] * 6
    assert not machine.branch_taken(2, a, b)
    assert not machine.branch_taken(3, a, b)
