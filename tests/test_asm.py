"""Assembler and image container checks."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from glitchbench import asm, isa
from glitchbench.machine import run_golden
from glitchbench.pipeline import run_pipeline
from glitchbench.workloads import workload_names, workload_source
from proggen import random_source
from rv32_corpus import CORPUS


def words_of(prog: asm.Program) -> dict[int, int]:
    return prog.words()


def test_two_pass_forward_reference():
    prog = asm.assemble("""
        beq x1, x2, done
        addi x3, x3, 1
    done:
        ebreak
    """)
    w = words_of(prog)
    assert w[0] == isa.encode("beq", rs1=1, rs2=2, imm=8)
    assert w[8] == isa.encode("ebreak")
    assert prog.symbols["done"] == 8
    assert prog.entry == 0


def test_backward_branch_to_own_label_encodes_zero_offset():
    prog = asm.assemble("loop: beq x1, x2, loop\n")
    assert words_of(prog)[0] == 0x00208063


def test_numeric_branch_targets_are_relative():
    prog = asm.assemble("beq x1, x2, 8\nbne x1, x2, -4\n")
    w = words_of(prog)
    assert w[0] == isa.encode("beq", rs1=1, rs2=2, imm=8)
    assert w[4] == isa.encode("bne", rs1=1, rs2=2, imm=-4)


def test_li_is_always_two_instructions():
    for value in (0, 1, -1, 7, 0x12345678, -0x80000000, 0xFFFFFFFF, 2047, 2048):
        prog = asm.assemble(f"li x5, {value}\nebreak\n")
        w = words_of(prog)
        assert len(w) == 3, f"li {value} did not expand to lui+addi"
        lui = isa.decode(w[0])
        addi = isa.decode(w[4])
        assert (lui.mnemonic, addi.mnemonic) == ("lui", "addi")
        got = (lui.imm + addi.imm) & 0xFFFFFFFF
        assert got == value & 0xFFFFFFFF, f"li {value} materialized {got:#x}"


def test_pseudo_expansions():
    prog = asm.assemble("nop\nmv x2, x3\nj next\nnext: ret\n")
    w = words_of(prog)
    assert w[0] == isa.NOP_WORD
    assert w[4] == isa.encode("addi", rd=2, rs1=3, imm=0)
    assert w[8] == isa.encode("jal", rd=0, imm=4)
    assert w[12] == isa.encode("jalr", rd=0, rs1=1, imm=0)


def test_abi_register_names():
    prog = asm.assemble("add a0, sp, ra\n")
    assert words_of(prog)[0] == isa.encode("add", rd=10, rs1=2, rs2=1)


def test_directives_and_symbols():
    prog = asm.assemble("""
        .equ PORT, 0x80000000
        .org 0x100
    start:
        li x6, PORT
        sw x1, 0(x6)
        ebreak
        .org 0x200
    table:
        .word 1, 2, table+8
        .byte 0xff, -1
        .ascii "ok\\n"
    """)
    assert prog.entry == 0x100
    assert prog.symbols["PORT"] == 0x80000000
    assert prog.symbols["table"] == 0x200
    w = words_of(prog)
    assert w[0x200] == 1 and w[0x204] == 2 and w[0x208] == 0x208
    seg = {s.base: s.data for s in prog.segments}[0x200]
    assert seg[12:14] == b"\xff\xff"
    assert seg[14:17] == b"ok\n"


def test_org_splits_segments():
    prog = asm.assemble(".org 0\nnop\n.org 0x1000\nnop\n")
    bases = [s.base for s in prog.segments]
    assert bases == [0, 0x1000]


def test_errors_carry_source_spans():
    cases = [
        # an operand's diagnostic points at that operand, or at the
        # register or symbol inside it that it names
        ("addi x1, x1, 99999\n", "out of range", (1, 14, 5)),
        ("beq x1, x2, nowhere\n", "unresolved symbol", (1, 13, 7)),
        ("  lw x1, 0(x99)\n", "bad register", (1, 12, 3)),
        # a comma inside parentheses does not split operands
        ("lw x1, 0(x2, x3)\n", "expected imm(reg)", (1, 8, 9)),
        ("sw x1, nowhere+4(x2)\n", "unresolved symbol", (1, 8, 7)),
        ("j done - 4\n", "unresolved symbol", (1, 3, 4)),
        (".equ n, 1\n.equ n, 2\n", "duplicate symbol", (2, 6, 1)),
        # a statement's diagnostic points at its head
        ("frobnicate x1\n", "unknown mnemonic", (1, 1, 10)),
        ("nop: nop x1\n", "takes 0 operand(s)", (1, 6, 3)),
        (".org 1\nnop\n", "unaligned", (2, 1, 3)),
        ("nop\n.org 0\n  nop\n", "overlapping", (3, 3, 3)),
        # of several bad operands, the leftmost is reported
        ("jal x40, nowhere\n", "bad register 'x40'", (1, 5, 3)),
        ("beq x40, x41, nowhere\n", "bad register 'x40'", (1, 5, 3)),
        ("lui x40, 0x100000\n", "bad register 'x40'", (1, 5, 3)),
        ("sw x40, y(x41)\n", "bad register 'x40'", (1, 4, 3)),
        ("lw x1, y(x41)\n", "unresolved symbol 'y'", (1, 8, 1)),
        ("li x40, 0x100000000\n", "bad register 'x40'", (1, 4, 3)),
        # a duplicate label points at itself
        ("a: nop\na: nop\n", "duplicate label", (2, 1, 1)),
        ("a: b: a: nop\n", "duplicate label", (1, 7, 1)),
    ]
    for src, fragment, span in cases:
        with pytest.raises(asm.AsmError) as err:
            asm.assemble(src)
        assert fragment in str(err.value), src
        assert err.value.span == asm.SourceSpan(*span), src


def test_any_whitespace_separates_the_head_from_its_operands():
    for tabbed, spaced in (("addi\tx1, x1, 1", "addi x1, x1, 1"),
                           ("\tlw\tx1,\t0(x2)", "lw x1, 0(x2)"),
                           (".word\t1", ".word 1")):
        got, want = asm.assemble(tabbed + "\n"), asm.assemble(spaced + "\n")
        assert [(s.base, s.data) for s in got.segments] == \
               [(s.base, s.data) for s in want.segments]


def test_a_hash_inside_a_string_is_not_a_comment():
    for src, data in (('.ascii "x\\"#y"\n', b'x"#y'),
                      ('.ascii "a#b"  # note\n', b"a#b"),
                      ('.ascii "a, b(" # "c\n', b"a, b(")):
        assert asm.assemble(src).segments[0].data == data


def test_a_string_ends_at_its_first_unescaped_quote():
    with pytest.raises(asm.AsmError,
                       match="unexpected 'b\"' after the string") as err:
        asm.assemble('.ascii "a"b"\n')
    assert err.value.span == asm.SourceSpan(1, 11, 2)
    assert asm.assemble('.ascii "a\\"b"\n').segments[0].data == b'a"b'


def test_a_character_wider_than_a_byte_is_an_asm_error():
    # the literal euro sign; in the source text, \u is no escape
    with pytest.raises(asm.AsmError,
                       match=r"character U\+20AC does not fit in a byte"
                       ) as err:
        asm.assemble('nop\n.ascii "€"\n')
    assert err.value.span == asm.SourceSpan(2, 8, 3)
    assert asm.assemble('.ascii "\\u20ac"\n').segments[0].data == b"u20ac"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='"\\#,() \taé€😀', max_size=12))
def test_an_ascii_operand_assembles_or_is_an_error_within_its_line(text):
    line = ".ascii " + text
    try:
        asm.assemble(line + "\n")
    except asm.AsmError as err:
        span = err.span
        assert span.line == 1 and span.length > 0, span
        assert 1 <= span.column <= span.column - 1 + span.length <= len(line)


def test_illegal_directive_emits_raw_word():
    prog = asm.assemble(".illegal 0xffffffff\n.illegal 0\n")
    w = words_of(prog)
    assert w[0] == 0xFFFFFFFF and w[4] == 0
    assert isinstance(isa.decode(w[0]), isa.Illegal)


@pytest.mark.parametrize("directive", [".word", ".illegal"])
def test_word_values_are_range_checked(directive):
    # the edges, -2**31 and 2**32 - 1, assemble; one past either is an error
    w = words_of(asm.assemble(f"{directive} -2147483648\n"
                              f"{directive} 4294967295\n"))
    assert (w[0], w[4]) == (0x80000000, 0xFFFFFFFF)
    for value in (-2147483649, 4294967296):
        with pytest.raises(asm.AsmError, match="out of range") as err:
            asm.assemble(f"nop\n  {directive} {value}\n")
        # the value's own column: two spaces, the directive, one space
        assert err.value.span == asm.SourceSpan(2, 4 + len(directive),
                                                len(str(value)))


def test_disassemble_reassemble_identity():
    # every emitted word survives a disassemble/re-assemble trip
    src = """
        .org 0x40
    entry:
        li x6, 0x80000000
        lw x5, 8(x6)
        addi x5, x5, -1
        sw x5, 4(x6)
        beq x5, x0, entry
        jal x1, entry
        jalr x0, 0(x1)
        lui x7, 74565
        auipc x8, 1
        div x9, x5, x7
        fence
        ebreak
        .illegal 0xffffffff
    """
    prog = asm.assemble(src)
    w = words_of(prog)
    lines = [f".org {addr}\n{isa.disassemble(word)}"
             for addr, word in sorted(w.items())]
    again = asm.assemble("\n".join(lines))
    assert words_of(again) == w


def test_image_roundtrip(tmp_path):
    prog = asm.assemble(".org 0x80\nli x1, 42\nebreak\n.org 0x400\n.word 7, 8\n")
    path = tmp_path / "prog.img"
    asm.store_image(prog, path)
    back = asm.load_image(path)
    assert back.entry == prog.entry
    assert [(s.base, s.data) for s in back.segments] == \
           [(s.base, s.data) for s in prog.segments]
    assert back.symbols == prog.symbols
    # manifest shape is stable
    manifest = json.loads(path.read_text())
    assert set(manifest["segments"][0]) == {"base", "file", "len", "sha256"}


def test_image_checksum_and_overlap_detection(tmp_path):
    prog = asm.assemble("nop\nebreak\n")
    path = tmp_path / "a.img"
    asm.store_image(prog, path)

    seg = tmp_path / "a.img.seg0"
    seg.write_bytes(b"\x00" * 8)
    with pytest.raises(asm.ImageError, match="checksum"):
        asm.load_image(path)

    asm.store_image(prog, path)
    manifest = json.loads(path.read_text())
    manifest["segments"].append(dict(manifest["segments"][0]))
    path.write_text(json.dumps(manifest))
    with pytest.raises(asm.ImageError, match="overlap"):
        asm.load_image(path)

    path.write_text("{not json")
    with pytest.raises(asm.ImageError, match="unreadable"):
        asm.load_image(path)


def test_entry_outside_segments_rejected(tmp_path):
    prog = asm.assemble("nop\nebreak\n")
    path = tmp_path / "b.img"
    asm.store_image(prog, path)
    manifest = json.loads(path.read_text())
    manifest["entry"] = 0x9000
    path.write_text(json.dumps(manifest))
    with pytest.raises(asm.ImageError, match="entry"):
        asm.load_image(path)


# every short form and pseudo instruction, so the digest covers each
SHORT_FORMS = """
    nop
    mv a0, sp
    li t0, -2049
top:
    j top
    jal top
    jal x0, 8
    jalr x5, 16(x6)
    jalr x1, (x2)
    lb x1, -2048(x2)
    fence
    fence 0x33
    ecall
    ebreak
    ret
    .word 1, top + 4, -1
    .byte 1, -128, 255
    .ascii "a\\"\\n"
    .org 0x100
    .illegal 0xffffffff
"""

# wrong operand counts for every format and form, the operand kinds that
# can fail, and statements with two bad operands (which one is reported
# first is part of the behaviour)
BAD_SOURCES = [
    "add x1, x2\n", "slli x1, x2\n", "addi x1, x2, 3, 4\n", "lw x1\n",
    "jalr x1, 0(x2), 4\n", "sw x1\n", "beq x1, x2\n", "lui x1\n",
    "jal x1, x2, 8\n", "jal\n", "fence 1, 2\n", "ecall x1\n", "nop x1\n",
    "mv x1\n", "j\n", "ret x1\n", "li x1\n",
    "lui x1, 0x100000\n", "auipc x1, -0x80001\n", "beq x1, x2, 3\n",
    "jal x1, 3\n", "j 1\n", ".byte 256\n", ".byte -129\n", "lw x1, 4\n",
    "sw x1, 0(x32)\n", "slli x1, x1, 32\n", "li x1, 0x100000000\n",
    ".illegal 1, 2\n", ".org 2\n.illegal 0\n", ".word 1, nowhere\n",
    "nop\n.org 0\n.word 1, nowhere\n", "nop\n.org 0\nli x1, 5\n",
    "add x40, x41, x42\n", "sw x40, y(x41)\n", "lw x40, 0(x41)\n",
    "beq x40, x41, 3\n", "beq x40, x41, nowhere\n", "lui x40, 0x100000\n",
    "jal x40, nowhere\n", "slli x40, x41, nowhere\n",
    "addi x1, x40, nowhere\n",
]

IMAGE_DIGEST = \
    "8549a15ffd4e44dd41a8aa841f200805304403cd150af8bcbc088a294cee10d3"
DIAGNOSTICS_DIGEST = \
    "2512336f749ebd3623a61ef8e55e519500c5339b8c864da3d45030d2a218f559"


def test_front_end_digest_is_frozen():
    # pins assembled images and disassembly text
    digest = hashlib.sha256()
    sources = [workload_source(name) for name in workload_names()]
    sources += [random_source(seed) for seed in range(100)]
    sources += [text + "\n" for text, _word in CORPUS]
    sources.append(SHORT_FORMS)
    for src in sources:
        prog = asm.assemble(src)
        digest.update(repr((prog.entry,
                            [(s.base, s.data.hex()) for s in prog.segments],
                            sorted(prog.symbols.items()))).encode())
    rng = random.Random(7)
    opcodes = sorted({op for _fmt, op, _f3, _f7 in isa.ENCODINGS.values()})
    for i in range(50_000):
        word = rng.getrandbits(32)
        if i % 2:  # half the words carry a supported opcode
            word = word & ~0x7F | rng.choice(opcodes)
        digest.update(isa.disassemble(word).encode() + b"\n")
    assert digest.hexdigest() == IMAGE_DIGEST


def test_diagnostics_digest_is_frozen():
    # pins the message and span of every assembler diagnostic in BAD_SOURCES
    digest = hashlib.sha256()
    for src in BAD_SOURCES:
        with pytest.raises(asm.AsmError) as err:
            asm.assemble(src)
        digest.update(repr((str(err.value), err.value.span)).encode())
    assert digest.hexdigest() == DIAGNOSTICS_DIGEST


@pytest.mark.parametrize("src", BAD_SOURCES)
def test_a_quoted_token_is_the_text_its_span_covers(src):
    with pytest.raises(asm.AsmError) as err:
        asm.assemble(src)
    span = err.value.span
    text = src.splitlines()[span.line - 1]
    covered = text[span.column - 1:span.column - 1 + span.length]
    assert covered.strip() == covered != ""
    quoted = re.search(r"'(.*)'", err.value.message)
    if quoted:
        assert covered == quoted.group(1)


@pytest.mark.parametrize("src, line", [
    (".org -8\naddi x5, x0, 1\nebreak\n", 1),
    (".org 0x100000000\n", 1),
    (".org 0xFFFFFFF8\naddi x5, x0, 1\nebreak\naddi x6, x0, 2\n", 4),
    (".org 0xFFFFFFFE\n.word 1\n", 2),
    (".org 0xFFFFFFFC\nli x5, 1\n", 2),
])
def test_addresses_outside_the_32_bit_space_are_rejected(src, line):
    # a bad .org value (line 1) is the operand's error, at its column; a
    # statement running off the end is the statement's, at its head
    column = 6 if line == 1 else 1
    with pytest.raises(asm.AsmError) as err:
        asm.assemble(src)
    assert (err.value.span.line, err.value.span.column) == (line, column)


def test_the_top_of_the_address_space_runs_in_lockstep():
    prog = asm.assemble(".org 0xFFFFFFF8\naddi x5, x0, 1\nebreak\n")
    gold, run = run_golden(prog), run_pipeline(prog)
    assert [e.pc for e in gold.events] == [0xFFFFFFF8, 0xFFFFFFFC]
    assert run.retires == gold.events
    assert run.arch.same_arch(gold.state) and run.arch.regs[5] == 1
