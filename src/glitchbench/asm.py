r"""Two-pass RV32IM assembler and the binary image container.

Source grammar is one statement per line: any number of `label:` prefixes,
then a head and its operands. The head is an instruction, a pseudo
instruction (nop / li / mv / j / ret), or one of the directives .org /
.word / .byte / .ascii / .equ / .illegal; whitespace outside a string ends
it. Operands are separated by the commas outside parentheses and strings.
A string is double-quoted, and a backslash escapes the next character (\n,
\t, \0, \\ and \" as in C; any other character stands for itself). A '#'
outside a string starts a comment. `li` always expands to a lui+addi pair
so instruction addresses never depend on the immediate's value.

A diagnostic about one operand points at that operand, or at the register or
symbol inside it that it names; a diagnostic about the statement points at
its head. Of several bad operands, the leftmost is reported.

Assembled programs serialize to a JSON manifest naming raw little-endian
segment files, each pinned by length and sha256.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import isa

ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21,
    "s6": 22, "s7": 23, "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

ADDRESS_SPACE = 1 << 32  # every address is below this

_SYMBOL = r"[A-Za-z_.$][A-Za-z0-9_.$]*"  # a label or .equ name
_LABEL_RE = re.compile(rf"^{_SYMBOL}$")
# a string runs to its first unescaped quote, or to the end of the line
_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'
_STRING = rf'"{_BODY}"?'
# the labels, the head and the operands; whitespace ends the head and '#'
# the operands, both outside a string
_LINE_RE = re.compile(rf'((?:\s*{_SYMBOL}\s*:)*)'
                      rf'\s*([^\s"#]*(?:{_STRING}[^\s"#]*)*)'
                      rf'([^"#]*(?:{_STRING}[^"#]*)*)')
_LABEL_DEF_RE = re.compile(rf"({_SYMBOL})\s*:")
_NESTING_RE = re.compile(rf"{_STRING}|[(),]")
_OFFSET_RE = re.compile(rf"^({_SYMBOL})\s*([+-])\s*(\S+)$")
_MEM_RE = re.compile(r"^(.*?)\s*\(\s*([A-Za-z0-9]+)\s*\)$")
_QUOTED_RE = re.compile(rf'"({_BODY})"')  # a closed string
_ESCAPES = {"n": "\n", "t": "\t", "0": "\0"}  # any other stands for itself
# data directive -> (bytes per value, what an out-of-range value is called)
_DATA = {".word": (4, "word value"), ".byte": (1, ".byte value")}


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    length: int = 1


class AsmError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}, col {span.column}: {message}")
        self.message = message
        self.span = span


class _Token(NamedTuple):
    """A piece of one source line without its surrounding whitespace."""

    text: str
    line: int  # 1-based
    col: int  # 1-based

    def part(self, m: re.Match, group: int) -> _Token:
        """`group` of a match `m` against this token's text."""

        return _Token(m.group(group), self.line, self.col + m.start(group))


def _fail(message: str, token: _Token):
    raise AsmError(message, SourceSpan(token.line, token.col, len(token.text)))


def _statement(raw: str, line: int) \
        -> tuple[list[_Token], _Token | None, list[_Token]]:
    """Read one source line once: its labels, its head (None if the line
    holds no statement) and its operands."""

    m = _LINE_RE.match(raw)
    labels = [_Token(d.group(1), line, d.start(1) + 1)
              for d in _LABEL_DEF_RE.finditer(raw, 0, m.end(1))] \
        if m.end(1) else []
    head = m.group(2)
    if not head:
        return labels, None, []
    at, rest = m.start(3), m.group(3)
    if '"' in rest or "(" in rest or ")" in rest:
        # only the commas outside strings and parentheses split operands
        parts, depth, cut = [], 0, 0
        for p in _NESTING_RE.finditer(rest):
            if p.group() == "(":
                depth += 1
            elif p.group() == ")":
                depth -= 1
            elif p.group() == "," and not depth:
                parts.append(rest[cut:p.start()])
                cut = p.end()
        parts.append(rest[cut:])
    else:  # nothing nests: every comma splits
        parts = rest.split(",")
    operands = []
    for part in parts:
        body = part.lstrip()
        operands.append(_Token(body.rstrip(), line,
                               at + len(part) - len(body) + 1))
        at += len(part) + 1
    if len(operands) == 1 and not operands[0].text:
        operands = []
    return labels, _Token(head, line, m.start(2) + 1), operands


class ImageError(Exception):
    """Raised for malformed, inconsistent, or corrupt image files."""


@dataclass(frozen=True)
class Segment:
    base: int
    data: bytes

    @property
    def end(self) -> int:
        return self.base + len(self.data)


@dataclass
class Program:
    entry: int
    segments: list[Segment] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)

    def words(self) -> dict[int, int]:
        """Word-aligned view of all segment bytes, little-endian."""

        out: dict[int, int] = {}
        for seg in self.segments:
            base, data = seg.base, seg.data
            for off in range(0, len(data), 4):
                chunk = data[off:off + 4]
                addr = (base + off) & ~3
                word = int.from_bytes(chunk.ljust(4, b"\0"), "little")
                if len(chunk) < 4 or (base + off) & 3:
                    # unaligned segment edges merge byte-wise
                    for i, b in enumerate(chunk):
                        a = base + off + i
                        w = out.get(a & ~3, 0)
                        shift = (a & 3) * 8
                        out[a & ~3] = (w & ~(0xFF << shift)) | b << shift
                else:
                    out[addr] = word
        return out


def _parse_int(text: str) -> int | None:
    try:
        return int(text, 0)
    except ValueError:
        return None


def _reg(token: _Token) -> int:
    name = token.text.lower()
    if name in ABI_NAMES:
        return ABI_NAMES[name]
    if name.startswith("x"):
        n = _parse_int(name[1:])
        if n is not None and 0 <= n <= 31:
            return n
    _fail(f"bad register '{token.text}'", token)


# pseudo instruction -> (instruction, written operand kinds, fixed fields)
_PSEUDO = {
    "nop": ("addi", (), {}),
    "mv": ("addi", ("rd", "rs1"), {}),
    "j": ("jal", ("target",), {}),
    "ret": ("jalr", (), {"rs1": 1}),
}


def _parse_string(token: _Token) -> bytes:
    m = _QUOTED_RE.match(token.text)
    if m is None:
        _fail(".ascii needs a double-quoted string", token)
    after = token.text[m.end():].lstrip()
    if after:
        col = token.col + len(token.text) - len(after)
        _fail(f"unexpected '{after}' after the string",
              _Token(after, token.line, col))
    text = re.sub(r"\\(.)", lambda e: _ESCAPES.get(e[1], e[1]), m[1])
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as e:
        _fail(f"character U+{ord(text[e.start]):04X} does not fit in a byte",
              token)


def _need_aligned(loc: int, head: _Token):
    if loc & 3:
        _fail(f"instruction at unaligned address 0x{loc:x}", head)


class Assembler:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.symbols: dict[str, int] = {}
        # (address, head of the statement, producer of the bytes to emit)
        self.items: list[tuple[int, _Token, partial[bytes]]] = []
        self.entry: int | None = None
        self.memory: dict[int, int] = {}  # addr -> byte
        self.seg_starts: set[int] = set()

    # ---------------- pass 1: layout ----------------

    def layout(self):
        loc = 0

        def item(size, produce, *args):  # at loc, for the statement at head
            nonlocal loc
            if loc + size > ADDRESS_SPACE:
                _fail(f"{size} byte(s) at 0x{loc:x} run past the "
                      f"32-bit address space", head)
            self.items.append((loc, head, partial(produce, *args)))
            loc += size

        for lineno, raw in enumerate(self.lines, start=1):
            labels, head, operands = _statement(raw, lineno)
            # "a: b: addi ..." defines both labels
            for label in labels:
                if label.text in self.symbols:
                    _fail(f"duplicate label '{label.text}'", label)
                self.symbols[label.text] = loc
            if head is None:
                continue
            name = head.text.lower()

            if name == ".org":
                if len(operands) != 1:
                    _fail(".org takes one address", head)
                loc = self._eval(operands[0], allow_fwd=False)
                if not 0 <= loc < ADDRESS_SPACE:
                    _fail(f".org address {loc:#x} outside the 32-bit "
                          f"address space", operands[0])
                self.seg_starts.add(loc)
            elif name == ".equ":
                if len(operands) != 2:
                    _fail(".equ takes name, value", head)
                symbol, value = operands
                if not _LABEL_RE.match(symbol.text):
                    _fail(f"bad symbol name '{symbol.text}'", symbol)
                if symbol.text in self.symbols:
                    _fail(f"duplicate symbol '{symbol.text}'", symbol)
                self.symbols[symbol.text] = self._eval(value, allow_fwd=False)
            elif name in _DATA:
                size, what = _DATA[name]
                if not operands:
                    _fail(f"{name} needs at least one value", head)
                for op in operands:
                    item(size, self._data, op, size, what)
            elif name == ".ascii":
                if len(operands) != 1:
                    _fail(".ascii needs a double-quoted string", head)
                data = _parse_string(operands[0])
                item(len(data), bytes, data)
            elif name == ".illegal":  # an aligned one-value .word
                if len(operands) != 1:
                    _fail(".illegal takes one word", head)
                _need_aligned(loc, head)
                item(4, self._data, operands[0], *_DATA[".word"])
            elif name.startswith("."):
                _fail(f"unknown directive '{name}'", head)
            else:
                _need_aligned(loc, head)
                if self.entry is None:
                    self.entry = loc
                if name == "li":
                    if len(operands) != 2:
                        _fail("li takes rd, imm", head)
                    item(8, self._li, *operands)
                elif name in isa.OPERANDS or name in _PSEUDO:
                    item(4, self._instr, name, head, operands, loc)
                else:
                    _fail(f"unknown mnemonic '{name}'", head)
        return self

    # ---------------- pass 2: encode ----------------

    def _eval(self, token: _Token, allow_fwd: bool = True) -> int:
        """label, integer, or label+/-constant."""

        expr = token.text
        val = _parse_int(expr)
        if val is not None:
            return val
        m = _OFFSET_RE.match(expr)
        if m:
            base = self._eval(token.part(m, 1), allow_fwd)
            off = _parse_int(m.group(3))
            if off is None:
                _fail(f"bad expression '{expr}'", token)
            return base + off if m.group(2) == "+" else base - off
        if _LABEL_RE.match(expr):
            if expr in self.symbols:
                return self.symbols[expr]
            if not allow_fwd:
                _fail(f"symbol '{expr}' not yet defined", token)
            _fail(f"unresolved symbol '{expr}'", token)
        _fail(f"bad expression '{expr}'", token)

    def _operand(self, kind: str, token: _Token, mnem: str,
                 pc: int) -> dict[str, int]:
        """The encoder fields one written operand of `kind` sets."""

        if kind == "mem":
            m = _MEM_RE.match(token.text)
            if not m:
                _fail(f"expected imm(reg), got '{token.text}'", token)
            off = self._eval(token.part(m, 1)) if m.group(1) else 0
            return {"imm": off, "rs1": _reg(token.part(m, 2))}
        if kind == "imm":
            return {"imm": self._eval(token)}
        if kind == "target":
            # bare integers are pc-relative offsets, symbols are addresses
            imm = _parse_int(token.text)
            if imm is None:
                imm = self._eval(token) - pc
            if imm & 1 and isa.ENCODINGS[mnem][0] == "B":
                _fail(f"misaligned branch target (offset {imm})", token)
            return {"imm": imm}
        if kind == "upper":
            hi = self._eval(token)
            if not -0x80000 <= hi <= 0xFFFFF:
                _fail(f"{mnem} immediate out of range: {hi}", token)
            value = (hi & 0xFFFFF) << 12
            return {"imm": value - (1 << 32) if value >= 1 << 31 else value}
        return {kind: _reg(token)}

    def _instr(self, mnem: str, head: _Token, ops: list[_Token],
               pc: int) -> bytes:
        real, kinds, fields = _PSEUDO.get(mnem) or (mnem, isa.OPERANDS[mnem], {})
        if mnem == "jal" and len(ops) == 1:  # jal target: rd is ra
            kinds, fields = ("target",), {"rd": 1}
        if mnem == "fence" and not ops:
            kinds, fields = (), {"imm": 0x0FF}
        if len(ops) != len(kinds):
            _fail(f"{mnem} takes {len(kinds)} operand(s)", head)
        fields = dict(fields)
        imm_from = head  # the operand an encoder range error is about
        for kind, token in zip(kinds, ops):
            written = self._operand(kind, token, real, pc)
            if "imm" in written:
                imm_from = token
            fields.update(written)
        try:
            return isa.encode(real, **fields).to_bytes(4, "little")
        except ValueError as e:
            _fail(str(e), imm_from)

    def _li(self, rd_token: _Token, imm_token: _Token) -> bytes:
        """`li rd, imm` is always lui + addi, whatever the value."""

        rd = _reg(rd_token)
        value = int.from_bytes(self._data(imm_token, 4, "li immediate"),
                               "little")
        lo = value & 0xFFF
        if lo >= 0x800:
            lo -= 0x1000
        hi = (value - lo) & 0xFFFFFFFF
        lui = isa.encode("lui", rd=rd,
                         imm=hi - (1 << 32) if hi >= 1 << 31 else hi)
        addi = isa.encode("addi", rd=rd, rs1=rd, imm=lo)
        return (lui | addi << 32).to_bytes(8, "little")

    def _data(self, token: _Token, size: int, what: str) -> bytes:
        """`size` little-endian bytes of a value, signed or unsigned."""

        val = self._eval(token)
        if not -(1 << 8 * size - 1) <= val < 1 << 8 * size:
            _fail(f"{what} out of range: {val}", token)
        return (val % (1 << 8 * size)).to_bytes(size, "little")

    def encode_all(self) -> Program:
        for addr, head, produce in self.items:
            for i, b in enumerate(produce()):
                if addr + i in self.memory:
                    _fail(f"overlapping emission at 0x{addr + i:x}", head)
                self.memory[addr + i] = b

        addrs = sorted(self.memory)
        # a segment starts after a gap and at every .org address
        starts = [i for i, a in enumerate(addrs)
                  if not i or a != addrs[i - 1] + 1 or a in self.seg_starts]
        segments = [Segment(addrs[i], bytes(map(self.memory.get, addrs[i:j])))
                    for i, j in zip(starts, starts[1:] + [len(addrs)])]
        entry = self.entry if self.entry is not None else (addrs[0] if addrs else 0)
        return Program(entry=entry, segments=segments, symbols=dict(self.symbols))


def assemble(text: str) -> Program:
    """Assemble source text into a Program. Raises AsmError with a source
    span on any diagnostic."""

    return Assembler(text).layout().encode_all()


# ---------------- image serialization ----------------

def store_image(program: Program, manifest_path: str | Path) -> None:
    path = Path(manifest_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    segs = []
    for i, seg in enumerate(program.segments):
        name = f"{path.name}.seg{i}"
        (path.parent / name).write_bytes(seg.data)
        segs.append({
            "base": seg.base,
            "file": name,
            "len": len(seg.data),
            "sha256": hashlib.sha256(seg.data).hexdigest(),
        })
    manifest = {"entry": program.entry, "segments": segs,
                "symbols": dict(sorted(program.symbols.items()))}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_image(manifest_path: str | Path) -> Program:
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ImageError(f"unreadable manifest {path}: {e}") from e
    if not isinstance(manifest, dict) or "entry" not in manifest \
            or "segments" not in manifest:
        raise ImageError(f"malformed manifest {path}: missing entry/segments")
    entry = manifest["entry"]
    symbols = manifest.get("symbols", {})
    if type(entry) is not int or not isinstance(manifest["segments"], list) \
            or not isinstance(symbols, dict) \
            or any(type(v) is not int for v in symbols.values()):
        raise ImageError(f"malformed manifest {path}: entry and symbol "
                         f"values must be integers, segments a list")
    if not 0 <= entry < ADDRESS_SPACE:
        raise ImageError(f"entry {entry:#x} outside the 32-bit address space")

    segments = []
    for ent in manifest["segments"]:
        try:
            base, name, length, digest = ent["base"], ent["file"], ent["len"], ent["sha256"]
        except (TypeError, KeyError) as e:
            raise ImageError(f"malformed segment entry in {path}") from e
        if type(base) is not int or type(length) is not int \
                or not isinstance(name, str) or not isinstance(digest, str):
            raise ImageError(f"malformed segment entry in {path}")
        if base < 0 or base + length > ADDRESS_SPACE:
            raise ImageError(f"segment {name} at {base:#x} outside the "
                             f"32-bit address space")
        data = (path.parent / name).read_bytes()
        if len(data) != length:
            raise ImageError(f"segment {name}: length {len(data)} != manifest {length}")
        if hashlib.sha256(data).hexdigest() != digest:
            raise ImageError(f"segment {name}: checksum mismatch")
        segments.append(Segment(base, data))

    segments.sort(key=lambda s: s.base)
    for a, b in zip(segments, segments[1:]):
        if a.end > b.base:
            raise ImageError(f"overlapping segments at 0x{b.base:x}")

    if segments and not any(s.base <= entry < s.end for s in segments):
        raise ImageError(f"entry 0x{entry:x} outside all segments")
    return Program(entry=entry, segments=segments, symbols=dict(symbols))
