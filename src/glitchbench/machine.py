"""Architectural state and the fault-free instruction-set simulator.

This is the reference executor: one instruction per step, no pipeline, no
timing. Differential runs compare everything against it. Two memory-mapped
word-store ports exist: 0x80000000 appends the stored word to the output
log, 0x80000004 halts with the stored word as exit code. EBREAK and ECALL
halt with exit code 0. Loads from unmapped addresses return 0 and record a
warning unless strict mode is on, in which case they trap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import isa
from .asm import Program

OUTPUT_PORT = 0x80000000
HALT_PORT = 0x80000004
MAX_CYCLES = 1_000_000   # default glitch-free run budget, cycles or steps

TRAP_CAUSES = frozenset({
    "FETCH_FAULT", "ILLEGAL", "MISALIGNED_LOAD",
    "MISALIGNED_STORE", "MISALIGNED_FETCH", "UNMAPPED_LOAD",
})


@dataclass(slots=True)
class ArchState:
    pc: int = 0
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    mem: dict[int, int] = field(default_factory=dict)  # word addr -> u32
    output_log: list[int] = field(default_factory=list)
    halted: bool = False
    halt_cause: str | None = None
    exit_code: int | None = None
    unmapped_reads: int = 0
    strict: bool = False

    def copy(self) -> "ArchState":
        c = ArchState(pc=self.pc, regs=list(self.regs), mem=dict(self.mem),
                      output_log=list(self.output_log), halted=self.halted,
                      halt_cause=self.halt_cause, exit_code=self.exit_code,
                      unmapped_reads=self.unmapped_reads, strict=self.strict)
        return c

    def same_arch(self, other: "ArchState") -> bool:
        """Architectural equality: registers, memory, pc, halt state, output."""

        return (self.regs == other.regs and self.pc == other.pc
                and self.halted == other.halted
                and self.halt_cause == other.halt_cause
                and self.exit_code == other.exit_code
                and self.output_log == other.output_log
                and _nonzero(self.mem) == _nonzero(other.mem))


def _nonzero(mem: dict[int, int]) -> dict[int, int]:
    return {a: v for a, v in mem.items() if v}


class StepEvent(NamedTuple):
    """One retired instruction, as observed architecturally."""

    pc: int
    next_pc: int
    raw: int
    mnemonic: str
    reg_write: tuple[int, int, int] | None = None  # (rd, old, new)
    mem_write: tuple[int, int, int, int] | None = None  # (addr, old, new, width)
    output: int | None = None
    halt: str | None = None


def load_program(program: Program, strict: bool = False) -> ArchState:
    state = ArchState(pc=program.entry, strict=strict)
    # mem is keyed by word index, Program.words() by byte address
    state.mem = {a >> 2: w for a, w in program.words().items()}
    return state


def _s32(v: int) -> int:
    return v - (1 << 32) if v & 0x80000000 else v


cached_decode = functools.cache(isa.decode)


def muldiv(mnemonic: str, a: int, b: int) -> int:
    """M extension arithmetic on u32 operands, returns u32."""

    if mnemonic == "mul":
        return (a * b) & 0xFFFFFFFF
    if mnemonic == "mulh":
        return ((_s32(a) * _s32(b)) >> 32) & 0xFFFFFFFF
    if mnemonic == "mulhsu":
        return ((_s32(a) * b) >> 32) & 0xFFFFFFFF
    if mnemonic == "mulhu":
        return ((a * b) >> 32) & 0xFFFFFFFF
    if mnemonic == "div":
        if b == 0:
            return 0xFFFFFFFF
        sa, sb = _s32(a), _s32(b)
        if sa == -(1 << 31) and sb == -1:
            return 0x80000000
        q = abs(sa) // abs(sb)
        return (q if (sa < 0) == (sb < 0) else -q) & 0xFFFFFFFF
    if mnemonic == "divu":
        return 0xFFFFFFFF if b == 0 else a // b
    if mnemonic == "rem":
        if b == 0:
            return a
        sa, sb = _s32(a), _s32(b)
        if sa == -(1 << 31) and sb == -1:
            return 0
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & 0xFFFFFFFF
    if mnemonic == "remu":
        return a if b == 0 else a % b
    raise AssertionError(mnemonic)


# op4 codes of the ALU and the branch comparator: the ISS and the
# pipeline's control word (pipeline.CONTROL) both select an operation by them
ALU_OP4 = {"add": 0, "sub": 1, "sll": 2, "slt": 3, "sltu": 4,
           "xor": 5, "srl": 6, "sra": 7, "or": 8, "and": 9,
           "addi": 0, "slli": 2, "slti": 3, "sltiu": 4,
           "xori": 5, "srli": 6, "srai": 7, "ori": 8, "andi": 9}
# a branch's op4 is its funct3
BRANCH_OP4 = {m: f3 for f3, m in isa.by_funct3(isa.OP_BRANCH).items()}


def alu(op4: int, a: int, b: int) -> int:
    """Integer ALU for register and immediate forms (u32 in/out).

    The undefined codes 10-15, reachable only through a corrupted control
    word, give 0.
    """

    if op4 == 0:
        return (a + b) & 0xFFFFFFFF
    if op4 == 1:
        return (a - b) & 0xFFFFFFFF
    if op4 == 2:
        return (a << (b & 31)) & 0xFFFFFFFF
    if op4 == 3:
        return 1 if _s32(a) < _s32(b) else 0
    if op4 == 4:
        return 1 if a < b else 0
    if op4 == 5:
        return a ^ b
    if op4 == 6:
        return a >> (b & 31)
    if op4 == 7:
        return (_s32(a) >> (b & 31)) & 0xFFFFFFFF
    if op4 == 8:
        return a | b
    if op4 == 9:
        return a & b
    return 0


def branch_taken(op4: int, a: int, b: int) -> bool:
    """Branch comparator; the undefined codes 2 and 3 are never taken."""

    if op4 == 0:
        return a == b
    if op4 == 1:
        return a != b
    if op4 == 4:
        return _s32(a) < _s32(b)
    if op4 == 5:
        return _s32(a) >= _s32(b)
    if op4 == 6:
        return a < b
    if op4 == 7:
        return a >= b
    return False


def load_from(state: ArchState, mnemonic: str, addr: int) -> tuple[int | None, str | None]:
    """Memory load path shared with the pipeline model.

    Returns (value, trap_cause); unmapped reads yield 0 plus a warning
    counter bump, or a trap when the state is strict.
    """

    addr &= 0xFFFFFFFF
    if mnemonic in ("lw",) and addr & 3:
        return None, "MISALIGNED_LOAD"
    if mnemonic in ("lh", "lhu") and addr & 1:
        return None, "MISALIGNED_LOAD"
    word = state.mem.get(addr >> 2)
    if word is None:
        if state.strict:
            return None, "UNMAPPED_LOAD"
        state.unmapped_reads += 1
        word = 0
    if mnemonic == "lw":
        return word, None
    bits = 16 if mnemonic in ("lh", "lhu") else 8   # else lb, lbu
    value = (word >> (addr & 3) * 8) & ((1 << bits) - 1)
    if mnemonic in ("lh", "lb") and value >> (bits - 1):
        value -= 1 << bits
    return value & 0xFFFFFFFF, None


def store_effect(state: ArchState, mnemonic: str, addr: int, value: int):
    """Apply a store; returns (mem_write, output, halt_tuple, trap_cause).

    Ports react to word stores only; byte and half stores land in plain
    memory everywhere.
    """

    addr &= 0xFFFFFFFF
    value &= 0xFFFFFFFF
    if mnemonic == "sw":
        if addr & 3:
            return None, None, None, "MISALIGNED_STORE"
        if addr == OUTPUT_PORT:
            state.output_log.append(value)
            return None, value, None, None
        if addr == HALT_PORT:
            return None, None, ("HALT_PORT", value), None
        old = state.mem.get(addr >> 2, 0)
        state.mem[addr >> 2] = value
        return (addr, old, value, 4), None, None, None
    if mnemonic == "sh" and addr & 1:
        return None, None, None, "MISALIGNED_STORE"
    width = 2 if mnemonic == "sh" else 1   # else sb
    shift = (addr & 3) * 8
    lane = ((1 << width * 8) - 1) << shift
    old = state.mem.get(addr >> 2, 0)
    new = (old & ~lane) | (value << shift) & lane
    state.mem[addr >> 2] = new
    return (addr, old, new, width), None, None, None


def _trap(state: ArchState, pc: int, cause: str, raw: int = 0,
          mnem: str = "") -> StepEvent:
    state.halted = True
    state.halt_cause = cause
    return StepEvent(pc, pc, raw, mnem, halt=cause)


def step(state: ArchState) -> StepEvent:
    """Execute one instruction; sets halt state on halts and traps.

    Each class computes the value for rd (`res`, None when it writes no
    register) and the next pc; rd is written once at the end.
    """

    pc = state.pc
    if pc & 3:
        return _trap(state, pc, "MISALIGNED_FETCH")
    word = state.mem.get(pc >> 2)
    if word is None:
        return _trap(state, pc, "FETCH_FAULT")
    d = cached_decode(word)
    if isinstance(d, isa.Illegal):
        return _trap(state, pc, "ILLEGAL", word)

    m = d.mnemonic
    cls = d.iclass
    regs = state.regs
    next_pc = (pc + 4) & 0xFFFFFFFF
    res = reg_write = mem_write = output = halt = None

    if cls is isa.IClass.ALU_IMM:
        res = alu(ALU_OP4[m], regs[d.rs1], d.imm & 0xFFFFFFFF)
    elif cls is isa.IClass.ALU_REG:
        res = alu(ALU_OP4[m], regs[d.rs1], regs[d.rs2])
    elif cls is isa.IClass.BRANCH or cls is isa.IClass.JUMP:
        # every control transfer: target, misaligned-fetch trap, link
        if m == "jalr":
            target = (regs[d.rs1] + d.imm) & 0xFFFFFFFE
        elif cls is isa.IClass.JUMP or branch_taken(
                BRANCH_OP4[m], regs[d.rs1], regs[d.rs2]):
            target = (pc + d.imm) & 0xFFFFFFFF
        else:
            target = next_pc
        if target & 3:
            return _trap(state, pc, "MISALIGNED_FETCH", word, m)
        if cls is isa.IClass.JUMP:
            res = next_pc
        next_pc = target
    elif cls is isa.IClass.LOAD:
        res, cause = load_from(state, m, regs[d.rs1] + d.imm)
        if cause:
            return _trap(state, pc, cause, word, m)
    elif cls is isa.IClass.STORE:
        mem_write, output, halt_info, cause = store_effect(
            state, m, regs[d.rs1] + d.imm, regs[d.rs2])
        if cause:
            return _trap(state, pc, cause, word, m)
        if halt_info:
            state.halted = True
            state.halt_cause, state.exit_code = halt_info
            halt = halt_info[0]
    elif cls is isa.IClass.MULDIV:
        res = muldiv(m, regs[d.rs1], regs[d.rs2])
    elif cls is isa.IClass.UPPER:
        res = (pc + d.imm if m == "auipc" else d.imm) & 0xFFFFFFFF
    elif m in ("ebreak", "ecall"):  # SYSTEM; fence has no effect
        state.halted = True
        halt = state.halt_cause = m.upper()
        state.exit_code = 0

    if res is not None and d.rd:
        reg_write = (d.rd, regs[d.rd], res)
        regs[d.rd] = res
    state.pc = next_pc
    return StepEvent(pc, next_pc, word, m, reg_write, mem_write, output, halt)


@dataclass
class GoldenRun:
    state: ArchState
    events: list[StepEvent]
    status: str  # HALTED | NOT_HALTED

    @property
    def steps(self) -> int:
        return len(self.events)


def run_golden(program: Program, max_steps: int = MAX_CYCLES,
               strict: bool = False) -> GoldenRun:
    """Run to halt or the step budget on the reference executor."""

    state = load_program(program, strict=strict)
    events: list[StepEvent] = []
    for _ in range(max_steps):
        events.append(step(state))
        if state.halted:
            return GoldenRun(state, events, "HALTED")
    return GoldenRun(state, events, "NOT_HALTED")
