"""RV32IM instruction coding: decode, encode, classify, disassemble.

The supported set is the RV32I base (less CSR/Zifencei) plus the M
extension. Anything else, including the architecturally reserved all-zeros
and all-ones words, decodes to Illegal. Decoding is bit-exact: re-encoding
a decoded instruction reproduces the original word.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NOP_WORD = 0x00000013  # addi x0, x0, 0

OP_LOAD = 0x03
OP_MISC_MEM = 0x0F
OP_ALU_IMM = 0x13
OP_AUIPC = 0x17
OP_STORE = 0x23
OP_ALU_REG = 0x33
OP_LUI = 0x37
OP_BRANCH = 0x63
OP_JALR = 0x67
OP_JAL = 0x6F
OP_SYSTEM = 0x73


class IClass(enum.Enum):
    """Coarse instruction class used to index the timing model."""

    ALU_REG = "ALU_REG"
    ALU_IMM = "ALU_IMM"
    LOAD = "LOAD"
    STORE = "STORE"
    BRANCH = "BRANCH"
    JUMP = "JUMP"
    UPPER = "UPPER"
    MULDIV = "MULDIV"
    SYSTEM = "SYSTEM"


@dataclass(frozen=True, slots=True)
class Instruction:
    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0  # sign-extended except LUI/AUIPC (pre-shifted U imm)
    raw: int = 0

    @property
    def iclass(self) -> IClass:
        return CLASS_OF[self.mnemonic]


@dataclass(frozen=True, slots=True)
class Illegal:
    """Word that matches no supported encoding."""

    raw: int


# mnemonic -> (format, opcode, funct3, funct7)
# format: R, I, S, B, U, J, SH (I-format shift), F (fence), E (ecall/ebreak)
ENCODINGS = {
    "lui":    ("U", OP_LUI, None, None),
    "auipc":  ("U", OP_AUIPC, None, None),
    "jal":    ("J", OP_JAL, None, None),
    "jalr":   ("I", OP_JALR, 0, None),
    "beq":    ("B", OP_BRANCH, 0, None),
    "bne":    ("B", OP_BRANCH, 1, None),
    "blt":    ("B", OP_BRANCH, 4, None),
    "bge":    ("B", OP_BRANCH, 5, None),
    "bltu":   ("B", OP_BRANCH, 6, None),
    "bgeu":   ("B", OP_BRANCH, 7, None),
    "lb":     ("I", OP_LOAD, 0, None),
    "lh":     ("I", OP_LOAD, 1, None),
    "lw":     ("I", OP_LOAD, 2, None),
    "lbu":    ("I", OP_LOAD, 4, None),
    "lhu":    ("I", OP_LOAD, 5, None),
    "sb":     ("S", OP_STORE, 0, None),
    "sh":     ("S", OP_STORE, 1, None),
    "sw":     ("S", OP_STORE, 2, None),
    "addi":   ("I", OP_ALU_IMM, 0, None),
    "slti":   ("I", OP_ALU_IMM, 2, None),
    "sltiu":  ("I", OP_ALU_IMM, 3, None),
    "xori":   ("I", OP_ALU_IMM, 4, None),
    "ori":    ("I", OP_ALU_IMM, 6, None),
    "andi":   ("I", OP_ALU_IMM, 7, None),
    "slli":   ("SH", OP_ALU_IMM, 1, 0x00),
    "srli":   ("SH", OP_ALU_IMM, 5, 0x00),
    "srai":   ("SH", OP_ALU_IMM, 5, 0x20),
    "add":    ("R", OP_ALU_REG, 0, 0x00),
    "sub":    ("R", OP_ALU_REG, 0, 0x20),
    "sll":    ("R", OP_ALU_REG, 1, 0x00),
    "slt":    ("R", OP_ALU_REG, 2, 0x00),
    "sltu":   ("R", OP_ALU_REG, 3, 0x00),
    "xor":    ("R", OP_ALU_REG, 4, 0x00),
    "srl":    ("R", OP_ALU_REG, 5, 0x00),
    "sra":    ("R", OP_ALU_REG, 5, 0x20),
    "or":     ("R", OP_ALU_REG, 6, 0x00),
    "and":    ("R", OP_ALU_REG, 7, 0x00),
    "mul":    ("R", OP_ALU_REG, 0, 0x01),
    "mulh":   ("R", OP_ALU_REG, 1, 0x01),
    "mulhsu": ("R", OP_ALU_REG, 2, 0x01),
    "mulhu":  ("R", OP_ALU_REG, 3, 0x01),
    "div":    ("R", OP_ALU_REG, 4, 0x01),
    "divu":   ("R", OP_ALU_REG, 5, 0x01),
    "rem":    ("R", OP_ALU_REG, 6, 0x01),
    "remu":   ("R", OP_ALU_REG, 7, 0x01),
    "fence":  ("F", OP_MISC_MEM, 0, None),
    "ecall":  ("E", OP_SYSTEM, 0, None),
    "ebreak": ("E", OP_SYSTEM, 0, None),
}

# the class of every mnemonic of an opcode, except MULDIV (funct7 1)
_OPCODE_CLASS = {
    OP_LOAD: IClass.LOAD, OP_MISC_MEM: IClass.SYSTEM,
    OP_ALU_IMM: IClass.ALU_IMM, OP_AUIPC: IClass.UPPER,
    OP_STORE: IClass.STORE, OP_ALU_REG: IClass.ALU_REG, OP_LUI: IClass.UPPER,
    OP_BRANCH: IClass.BRANCH, OP_JALR: IClass.JUMP, OP_JAL: IClass.JUMP,
    OP_SYSTEM: IClass.SYSTEM,
}
CLASS_OF = {m: IClass.MULDIV if f7 == 1 else _OPCODE_CLASS[op]
            for m, (_fmt, op, _f3, f7) in ENCODINGS.items()}

# mnemonic -> written operand kinds: registers rd/rs1/rs2, an immediate
# `imm`, `mem` (`imm(rs1)`), a pc-relative `target` and the 20-bit `upper`
# immediate; loads and jalr take `rd, mem`
_FORMAT_OPERANDS = {
    "R": ("rd", "rs1", "rs2"), "SH": ("rd", "rs1", "imm"),
    "I": ("rd", "rs1", "imm"), "S": ("rs2", "mem"),
    "B": ("rs1", "rs2", "target"), "U": ("rd", "upper"),
    "J": ("rd", "target"), "F": ("imm",), "E": (),
}
OPERANDS = {m: ("rd", "mem") if op in (OP_LOAD, OP_JALR)
            else _FORMAT_OPERANDS[fmt]
            for m, (fmt, op, _f3, _f7) in ENCODINGS.items()}

# mnemonic -> (reads rs1, reads rs2)
REG_READS = {m: ("rs1" in kinds or "mem" in kinds, "rs2" in kinds)
             for m, kinds in OPERANDS.items()}


def by_funct3(opcode: int, funct7: int | None = None) -> dict[int, str]:
    """{funct3: mnemonic} of the encodings with this opcode and funct7."""

    return {f3: m for m, (_fmt, op, f3, f7) in ENCODINGS.items()
            if op == opcode and f7 == funct7}


# format -> (the register fields it holds, the immediate's slices as (word
# bit, width, immediate bit), whether the immediate is signed, the
# immediates encode accepts as (lo, hi, alignment, noun, what a misaligned
# one is called)). Every register field is 5 bits wide, at the same place in
# every format. ecall and ebreak hold nothing: ebreak is ecall with bit 20 set.
_REG_AT = {"rd": 7, "rs1": 15, "rs2": 20}
_LAYOUT = {
    "R": (("rd", "rs1", "rs2"), (), False, None),
    "I": (("rd", "rs1"), ((20, 12, 0),), True,
          (-2048, 2047, 1, "immediate", None)),
    "SH": (("rd", "rs1"), ((20, 5, 0),), False,
           (0, 31, 1, "shift amount", None)),
    "S": (("rs1", "rs2"), ((7, 5, 0), (25, 7, 5)), True,
          (-2048, 2047, 1, "immediate", None)),
    "B": (("rs1", "rs2"), ((8, 4, 1), (25, 6, 5), (7, 1, 11), (31, 1, 12)),
          True, (-4096, 4094, 2, "offset", "must be even")),
    "U": (("rd",), ((12, 20, 12),), False,
          (-0x80000000, 0xFFFFF000, 0x1000, "immediate", "out of range")),
    "J": (("rd",), ((21, 10, 1), (20, 1, 11), (12, 8, 12), (31, 1, 20)), True,
          (-(1 << 20), (1 << 20) - 2, 2, "offset", "must be even")),
    "F": (("rd", "rs1"), ((20, 12, 0),), False,
          (0, 0xFFF, 1, "immediate", None)),
    "E": ((), (), False, None),
}


def _row(mnemonic: str, fmt: str, opcode: int, f3: int | None,
         f7: int | None) -> tuple:
    """One mnemonic's layout: (fixed bits, fields as (index into rd, rs1,
    rs2, imm; word bit; mask; operand bit), sign bit or 0, accepted imms)."""

    regs, slices, signed, accepts = _LAYOUT[fmt]
    fields = [(i, at, 0x1F, 0)
              for i, (r, at) in enumerate(_REG_AT.items()) if r in regs]
    fields += [(3, at, (1 << width) - 1, bit) for at, width, bit in slices]
    top = max((bit + width for _at, width, bit in slices), default=0)
    fixed = opcode | (f3 or 0) << 12 | (f7 or 0) << 25
    return (fixed | (mnemonic == "ebreak") << 20, tuple(fields),
            1 << (top - 1) if signed else 0, accepts)


_ROWS = {m: _row(m, *enc) for m, enc in ENCODINGS.items()}

# decoder key -> mnemonic: (opcode, funct3, funct7) for R and shift forms,
# (opcode, funct3) for the other funct3 forms, the opcode alone for U and J.
# ecall/ebreak differ only in the immediate and are decoded by hand.
_BY_KEY = {}
for _m, (_fmt, _op, _f3, _f7) in ENCODINGS.items():
    if _fmt != "E":
        _BY_KEY[_op if _f3 is None else (_op, _f3) if _f7 is None
                else (_op, _f3, _f7)] = _m


def decode(word: int) -> Instruction | Illegal:
    """Decode a 32-bit word; unsupported encodings come back as Illegal."""

    word &= 0xFFFFFFFF
    opcode = word & 0x7F
    if opcode == OP_SYSTEM:  # ecall and ebreak are their fixed bits alone
        if word == _ROWS["ecall"][0]:
            return Instruction("ecall", raw=word)
        if word == _ROWS["ebreak"][0]:
            return Instruction("ebreak", imm=1, raw=word)
        return Illegal(word)

    funct3 = (word >> 12) & 0x07
    m = (_BY_KEY.get((opcode, funct3, word >> 25))
         or _BY_KEY.get((opcode, funct3)) or _BY_KEY.get(opcode))
    if m is None:
        return Illegal(word)
    _fixed, fields, sign, _accepts = _ROWS[m]
    ops = [0, 0, 0, 0]
    for i, at, mask, bit in fields:
        ops[i] |= (word >> at & mask) << bit
    rd, rs1, rs2, imm = ops
    # fence: hint forms with nonzero rd/rs1 are reserved; treat as unsupported
    if m == "fence" and (rd or rs1):
        return Illegal(word)
    return Instruction(m, rd, rs1, rs2, (imm ^ sign) - sign, word)


def _check_reg(name: str, value: int) -> None:
    if not 0 <= value <= 31:
        raise ValueError(f"{name} out of range: {value}")


def encode(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Encode operands into a 32-bit word. Raises ValueError on bad operands."""

    row = _ROWS.get(mnemonic)
    if row is None:
        raise ValueError(f"unknown mnemonic: {mnemonic}")
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)
    word, fields, _sign, accepts = row
    if accepts:
        lo, hi, align, noun, misaligned = accepts
        if not lo <= imm <= hi:
            raise ValueError(f"{mnemonic} {noun} out of range: {imm}")
        if imm % align:
            raise ValueError(f"{mnemonic} {noun} {misaligned}: {imm}")
    ops = (rd, rs1, rs2, imm)
    for i, at, mask, bit in fields:
        word |= (ops[i] >> bit & mask) << at
    return word


def reencode(instr: Instruction) -> int:
    """Pack a decoded Instruction back into its word."""

    return encode(instr.mnemonic, rd=instr.rd, rs1=instr.rs1,
                  rs2=instr.rs2, imm=instr.imm)


def disassemble(item: Instruction | Illegal | int) -> str:
    """Render one instruction the way the assembler accepts it back."""

    if isinstance(item, int):
        item = decode(item)
    if isinstance(item, Illegal):
        return f".illegal 0x{item.raw:08x}"

    m = item.mnemonic
    if m == "fence":
        if (item.imm & 0xFFF) == 0x0FF and item.rd == 0 and item.rs1 == 0:
            return "fence"
        return f"fence 0x{item.imm & 0xFFF:03x}"
    written = {"rd": f"x{item.rd}", "rs1": f"x{item.rs1}",
               "rs2": f"x{item.rs2}", "imm": item.imm, "target": item.imm,
               "mem": f"{item.imm}(x{item.rs1})",
               "upper": (item.imm >> 12) & 0xFFFFF}
    ops = ", ".join(str(written[k]) for k in OPERANDS[m])
    return f"{m} {ops}" if ops else m  # ecall / ebreak take none
