"""Instruction coding checks against the frozen corpus plus fuzz sweeps."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from glitchbench import asm, isa
from rv32_corpus import CORPUS


def test_corpus_encodings_exact():
    for text, word in CORPUS:
        got = isa.decode(word)
        assert isinstance(got, isa.Instruction), f"{text}: decoded Illegal"
        assert isa.disassemble(got) == text
        assert isa.reencode(got) == word, f"{text}: re-encode mismatch"


def test_worked_examples():
    lw = isa.decode(0x00032283)
    assert isinstance(lw, isa.Instruction)
    assert (lw.mnemonic, lw.rd, lw.rs1, lw.imm) == ("lw", 5, 6, 0)
    assert lw.iclass is isa.IClass.LOAD

    add = isa.decode(0x002081B3)
    assert (add.mnemonic, add.rd, add.rs1, add.rs2) == ("add", 3, 1, 2)

    assert isa.encode("beq", rs1=1, rs2=2, imm=8) == 0x00208463
    assert isa.encode("beq", rs1=1, rs2=2, imm=0) == 0x00208063
    assert isa.encode("addi") == isa.NOP_WORD


def test_reserved_words_are_illegal():
    for word in (0x00000000, 0xFFFFFFFF):
        got = isa.decode(word)
        assert isinstance(got, isa.Illegal)
        assert got.raw == word
        assert isa.disassemble(got) == f".illegal 0x{word:08x}"


def test_all_load_mnemonics_and_only_those():
    loads = {m for m, c in isa.CLASS_OF.items() if c is isa.IClass.LOAD}
    assert loads == {"lb", "lh", "lw", "lbu", "lhu"}


def test_every_mnemonic_has_class_and_encoding():
    assert set(isa.CLASS_OF) == set(isa.ENCODINGS)
    for m in isa.ENCODINGS:
        assert isinstance(isa.CLASS_OF[m], isa.IClass)


def _random_operands(rng: random.Random, fmt: str) -> dict:
    ops = {
        "rd": rng.randrange(32),
        "rs1": rng.randrange(32),
        "rs2": rng.randrange(32),
    }
    if fmt in ("I",):
        ops["imm"] = rng.randrange(-2048, 2048)
    elif fmt == "S":
        ops["imm"] = rng.randrange(-2048, 2048)
    elif fmt == "SH":
        ops["imm"] = rng.randrange(32)
    elif fmt == "B":
        ops["imm"] = rng.randrange(-2048, 2048) * 2
    elif fmt == "U":
        ops["imm"] = rng.randrange(1 << 20) << 12
        if ops["imm"] >= 1 << 31:
            ops["imm"] -= 1 << 32
    elif fmt == "J":
        ops["imm"] = rng.randrange(-(1 << 19), 1 << 19) * 2
    elif fmt == "F":
        ops["imm"] = 0x0FF
        ops["rd"] = ops["rs1"] = 0
    elif fmt == "E":
        ops = {}
    return ops


def test_roundtrip_all_mnemonics_random_operands():
    # encode -> decode -> re-encode must be the identity on the word
    rng = random.Random(0x15A)
    for m, (fmt, *_rest) in isa.ENCODINGS.items():
        for _ in range(1000):
            ops = _random_operands(rng, fmt)
            word = isa.encode(m, **ops)
            got = isa.decode(word)
            assert isinstance(got, isa.Instruction), f"{m} {ops}"
            assert got.mnemonic == m
            assert isa.reencode(got) == word


def test_decode_reencode_identity_on_random_words():
    # any word either decodes Illegal or round-trips bit-exactly
    rng = random.Random(0xDEC0DE)
    for _ in range(20000):
        word = rng.randrange(1 << 32)
        got = isa.decode(word)
        if isinstance(got, isa.Instruction):
            assert isa.reencode(got) == word
            text = isa.disassemble(got)
            assert text and not text.startswith(".illegal")


def test_disassemble_formats():
    cases = [(("lw", {"rd": 5, "rs1": 6, "imm": 0}), "lw x5, 0(x6)"),
             (("sw", {"rs1": 6, "rs2": 5, "imm": -4}), "sw x5, -4(x6)"),
             (("jalr", {"rd": 1, "rs1": 5, "imm": 16}), "jalr x1, 16(x5)"),
             (("lui", {"rd": 5, "imm": 0x12345 << 12}), "lui x5, 74565"),
             (("ebreak", {}), "ebreak")]
    for (mnemonic, fields), text in cases:
        got = isa.decode(isa.encode(mnemonic, **fields))
        assert isinstance(got, isa.Instruction)
        assert isa.disassemble(got) == text
    assert isa.disassemble(isa.NOP_WORD) == "addi x0, x0, 0"


def test_encode_rejects_bad_operands():
    with pytest.raises(ValueError):
        isa.encode("addi", rd=32)
    with pytest.raises(ValueError):
        isa.encode("addi", imm=2048)
    with pytest.raises(ValueError):
        isa.encode("beq", imm=3)  # odd branch offset
    with pytest.raises(ValueError):
        isa.encode("slli", imm=32)
    with pytest.raises(ValueError):
        isa.encode("nop")  # pseudo ops live in the assembler


def test_system_variants_stay_illegal():
    # CSR space and nonzero system immediates are out of scope
    assert isinstance(isa.decode(0x30200073), isa.Illegal)  # mret
    assert isinstance(isa.decode(0x00200073), isa.Illegal)
    assert isinstance(isa.decode(0x10500073), isa.Illegal)  # wfi


# sha256 of the decoded form of every DECODE_GRID word, frozen when the
# decoder was rewritten to be table-driven
DECODE_DIGEST = \
    "e9a1e9fea9930e41474033aa1f30b3102ce9147878ca34de3c2190760b7ace02"


def _decode_grid():
    """Every (opcode, funct3, funct7) with (rd, rs1, rs2) in {(0,0,0),
    (5,7,1)}; for MISC-MEM and SYSTEM, whose legality depends on rd and
    rs1, every rd in {0,5}, rs1 in {0,7}, rs2 in {0,1}."""

    for op in range(128):
        if op in (isa.OP_MISC_MEM, isa.OP_SYSTEM):
            regs = list(itertools.product((0, 5), (0, 7), (0, 1)))
        else:
            regs = [(0, 0, 0), (5, 7, 1)]
        for f3 in range(8):
            for f7 in range(128):
                for rd, rs1, rs2 in regs:
                    yield (f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12
                           | rd << 7 | op)


def test_decode_digest_is_frozen():
    # pins the exact legal set and every decoded field, not just round trips
    words = list(_decode_grid())
    assert len(words) == 274_432
    text = "\n".join(repr(isa.decode(w)) for w in words)
    assert hashlib.sha256(text.encode()).hexdigest() == DECODE_DIGEST


# (lo, hi, alignment) of the immediates encode accepts: I and S, SH, B, U,
# J and fence
_IMM_LIMITS = [(-2048, 2047, 1), (0, 31, 1), (-4096, 4094, 2),
               (-(1 << 31), 0xFFFFF000, 0x1000), (-(1 << 20), (1 << 20) - 2, 2),
               (0, 0xFFF, 1)]
ENCODE_IMMS = sorted(
    {0, 1, -1, 4096, -4096, 1 << 31, -(1 << 31), 1 << 32, -(1 << 32)}
    | {bound + sign * step for lo, hi, align in _IMM_LIMITS
       for bound in (lo, hi) for step in (1, align) for sign in (-1, 0, 1)})
ENCODE_REGS = [(0, 0, 0), (31, 17, 5), (32, 0, 0), (0, -1, 0), (0, 0, 33)]

# sha256 of the word or ValueError text of every mnemonic over ENCODE_IMMS x
# ENCODE_REGS (fence only over its in-range immediates), frozen before the
# encoder was rewritten to be table-driven
ENCODE_DIGEST = \
    "0d641a1445570253dcfb7b51932d5ac25a6b1579f206d5655f3c1219e3a81d59"


def _encode_results():
    for m in [*sorted(isa.ENCODINGS), "nop"]:
        imms = [i for i in ENCODE_IMMS if m != "fence" or 0 <= i <= 0xFFF]
        for (rd, rs1, rs2), imm in itertools.product(ENCODE_REGS, imms):
            try:
                got = f"0x{isa.encode(m, rd, rs1, rs2, imm):08x}"
            except ValueError as e:
                got = f"ValueError: {e}"
            yield f"{m} {rd} {rs1} {rs2} {imm}: {got}"


def test_encode_digest_is_frozen():
    # pins every word and every error text, not just that one is raised
    lines = list(_encode_results())
    assert len(lines) == 10_620
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == ENCODE_DIGEST


def test_fence_immediates_are_range_checked():
    for imm in (-1, 0x1000, 0x1FFF):
        with pytest.raises(ValueError) as err:
            isa.encode("fence", imm=imm)
        assert str(err.value) == f"fence immediate out of range: {imm}"
    for src, imm in (("fence", 0x0FF), ("fence 0x0ff", 0x0FF),
                     ("fence 0xfff", 0xFFF), ("fence 0", 0)):
        data = asm.assemble(src + "\n").segments[0].data
        word = int.from_bytes(data, "little")
        got = isa.decode(word)
        assert isinstance(got, isa.Instruction)
        assert (got.mnemonic, got.imm) == ("fence", imm)
        assert isa.reencode(got) == word
    with pytest.raises(asm.AsmError) as err:
        asm.assemble("nop\n  fence 0x1000\n")
    assert err.value.message == "fence immediate out of range: 4096"
    assert err.value.span == asm.SourceSpan(2, 9, 6)  # the immediate
