"""Reference executor checks: ISA semantics, ports, traps, determinism."""

from __future__ import annotations

import random

from glitchbench import asm, isa, machine


def run_src(src: str, max_steps: int = 10000, strict: bool = False):
    return machine.run_golden(asm.assemble(src), max_steps=max_steps, strict=strict)


def test_arithmetic_and_m_extension():
    r = run_src("""
        li x1, 7
        li x2, -3
        add x3, x1, x2
        mul x4, x1, x2
        div x5, x2, x1
        rem x6, x2, x1
        divu x7, x2, x1
        remu x8, x2, x1
        ebreak
    """)
    regs = r.state.regs
    assert regs[3] == 4
    assert regs[4] == (-21) & 0xFFFFFFFF
    assert regs[5] == 0  # trunc toward zero
    assert regs[6] == (-3) & 0xFFFFFFFF
    assert regs[7] == 613566756  # 0xFFFFFFFD // 7
    assert regs[8] == 1
    assert r.status == "HALTED" and r.state.halt_cause == "EBREAK"
    assert r.state.exit_code == 0


def test_division_edge_cases():
    # the architected x/0 and overflow results
    assert machine.muldiv("div", 5, 0) == 0xFFFFFFFF
    assert machine.muldiv("divu", 5, 0) == 0xFFFFFFFF
    assert machine.muldiv("rem", 5, 0) == 5
    assert machine.muldiv("remu", 5, 0) == 5
    assert machine.muldiv("div", 0x80000000, 0xFFFFFFFF) == 0x80000000
    assert machine.muldiv("rem", 0x80000000, 0xFFFFFFFF) == 0
    assert machine.muldiv("mulh", 0x80000000, 0x80000000) == 0x40000000
    assert machine.muldiv("mulhu", 0xFFFFFFFF, 0xFFFFFFFF) == 0xFFFFFFFE
    assert machine.muldiv("mulhsu", 0xFFFFFFFF, 0xFFFFFFFF) == 0xFFFFFFFF


def test_shifts_and_compares():
    r = run_src("""
        li x1, -8
        srai x2, x1, 1
        srli x3, x1, 28
        slli x4, x1, 4
        slt x5, x1, x0
        sltu x6, x1, x0
        ebreak
    """)
    regs = r.state.regs
    assert regs[2] == (-4) & 0xFFFFFFFF
    assert regs[3] == 0xF
    assert regs[4] == (-128) & 0xFFFFFFFF
    assert regs[5] == 1
    assert regs[6] == 0


def test_memory_bytes_halves_sign_extension():
    r = run_src("""
        .equ BUF, 0x1000
        li x1, BUF
        li x2, -2
        sw x2, 0(x1)
        lb x3, 0(x1)
        lbu x4, 0(x1)
        lh x5, 0(x1)
        lhu x6, 0(x1)
        li x7, 0xAB
        sb x7, 5(x1)
        lw x8, 4(x1)
        ebreak
        .org 0x1000
        .word 0, 0
    """)
    regs = r.state.regs
    assert regs[3] == (-2) & 0xFFFFFFFF
    assert regs[4] == 0xFE
    assert regs[5] == (-2) & 0xFFFFFFFF
    assert regs[6] == 0xFFFE
    assert regs[8] == 0xAB00


def test_output_and_halt_ports():
    r = run_src("""
        li x6, 0x80000000
        li x1, 0xBEEF
        sw x1, 0(x6)
        li x2, 3
        sw x2, 4(x6)
        nop
    """)
    assert r.state.output_log == [0xBEEF]
    assert r.state.halted and r.state.halt_cause == "HALT_PORT"
    assert r.state.exit_code == 3
    # the halting store is not an output and not a memory write
    halt_ev = r.events[-1]
    assert halt_ev.mem_write is None and halt_ev.output is None
    assert halt_ev.halt == "HALT_PORT"


def test_byte_stores_to_port_region_are_plain_memory():
    r = run_src("""
        li x6, 0x80000000
        li x1, 0x11
        sb x1, 0(x6)
        lw x2, 0(x6)
        ebreak
    """)
    assert r.state.output_log == []
    assert r.state.regs[2] == 0x11


def test_branch_loop_sums():
    r = run_src("""
        li x1, 5
        li x2, 0
    loop:
        add x2, x2, x1
        addi x1, x1, -1
        bne x1, x0, loop
        ebreak
    """)
    assert r.state.regs[2] == 15


def test_jal_jalr_linkage():
    r = run_src("""
        jal x1, func
        li x9, 1
        ebreak
    func:
        li x8, 2
        ret
    """)
    assert r.state.regs[8] == 2 and r.state.regs[9] == 1
    assert r.state.regs[1] == 4


def test_auipc_lui():
    r = run_src(".org 0x100\nauipc x1, 1\nlui x2, 0xFFFFF\nebreak\n")
    assert r.state.regs[1] == 0x1100
    assert r.state.regs[2] == 0xFFFFF000


def test_traps():
    r = run_src(".illegal 0x00000000\n")
    assert r.state.halt_cause == "ILLEGAL" and "ILLEGAL" in machine.TRAP_CAUSES

    r = run_src("li x1, 0x1001\nlw x2, 0(x1)\nebreak\n")
    assert r.state.halt_cause == "MISALIGNED_LOAD"

    r = run_src("li x1, 0x1002\nsw x1, 0(x1)\nebreak\n")
    assert r.state.halt_cause == "MISALIGNED_STORE"

    r = run_src("j 0x100\n")  # lands on unmapped memory
    assert r.state.halt_cause == "FETCH_FAULT"

    r = run_src("li x1, 0x102\njalr x0, 0(x1)\n")
    assert r.state.halt_cause == "MISALIGNED_FETCH"

    # trap event pins pc at the faulting instruction
    ev = r.events[-1]
    assert ev.pc == ev.next_pc == r.state.pc


def test_unmapped_loads_warn_or_trap():
    src = "li x1, 0x4000\nlw x2, 0(x1)\nebreak\n"
    r = run_src(src)
    assert r.state.regs[2] == 0 and r.state.unmapped_reads == 1
    assert r.state.halt_cause == "EBREAK"

    r = run_src(src, strict=True)
    assert r.state.halt_cause == "UNMAPPED_LOAD"


def test_jalr_clears_low_bit():
    r = run_src("""
        li x1, func+1
        jalr x5, 0(x1)
        ebreak
    func:
        li x8, 9
        ebreak
    """)
    assert r.state.regs[8] == 9


def test_determinism():
    src = """
        li x1, 100
    loop:
        addi x1, x1, -1
        mul x2, x1, x1
        bne x1, x0, loop
        ebreak
    """
    a = run_src(src)
    b = run_src(src)
    assert a.events == b.events
    assert a.state.same_arch(b.state)


_ALU_POOL = [m for m, c in isa.CLASS_OF.items()
             if c in (isa.IClass.ALU_REG, isa.IClass.ALU_IMM, isa.IClass.MULDIV,
                      isa.IClass.UPPER)]


def test_x0_never_changes():
    # fuzz: no instruction sequence may disturb the zero register
    rng = random.Random(0x0)
    for _ in range(10_000):
        lines = []
        for _ in range(rng.randrange(1, 12)):
            m = rng.choice(_ALU_POOL)
            fmt = isa.ENCODINGS[m][0]
            rd, rs1, rs2 = (rng.randrange(32) for _ in range(3))
            if fmt == "R":
                lines.append(f"{m} x{rd}, x{rs1}, x{rs2}")
            elif fmt == "SH":
                lines.append(f"{m} x{rd}, x{rs1}, {rng.randrange(32)}")
            elif fmt == "U":
                lines.append(f"{m} x{rd}, {rng.randrange(1 << 20)}")
            else:
                lines.append(f"{m} x{rd}, x{rs1}, {rng.randrange(-2048, 2048)}")
        lines.append("ebreak")
        r = run_src("\n".join(lines))
        assert r.state.regs[0] == 0
        assert r.state.halt_cause == "EBREAK"
