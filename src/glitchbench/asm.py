"""Two-pass RV32IM assembler and the binary image container.

Source grammar is one statement per line: an optional `label:` prefix, then
an instruction, a pseudo instruction (nop / li / mv / j / ret), or one of
the directives .org / .word / .byte / .ascii / .equ / .illegal. Comments
start with '#'. `li` always expands to a lui+addi pair so instruction
addresses never depend on the immediate's value.

Assembled programs serialize to a JSON manifest naming raw little-endian
segment files, each pinned by length and sha256.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import isa

ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21,
    "s6": 22, "s7": 23, "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_RE = re.compile(r"^(.*)\(\s*([A-Za-z0-9]+)\s*\)$")


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


@dataclass
class _Stmt:
    line: int
    column: int
    kind: str  # "instr" | "word" | "byte" | "ascii" | "illegal"
    addr: int = 0
    mnemonic: str = ""
    operands: tuple[str, ...] = ()
    values: tuple = ()
    li_slot: int = 0  # 0 normal, 1 lui half, 2 addi half of li


class Assembler:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.symbols: dict[str, int] = {}
        self.stmts: list[_Stmt] = []
        self.entry: int | None = None
        self.memory: dict[int, int] = {}  # addr -> byte
        self.seg_starts: set[int] = set()

    # ---------------- pass 1: layout ----------------

    def _err(self, msg: str, line: int, col: int = 1, length: int = 1):
        raise AsmError(msg, SourceSpan(line, col, length))

    def _strip_comment(self, raw: str) -> str:
        out = []
        in_str = False
        for ch in raw:
            if ch == '"':
                in_str = not in_str
            if ch == "#" and not in_str:
                break
            out.append(ch)
        return "".join(out)

    def _split_operands(self, rest: str) -> tuple[str, ...]:
        rest = rest.strip()
        if not rest:
            return ()
        depth = 0
        parts, cur = [], []
        in_str = False
        for ch in rest:
            if ch == '"':
                in_str = not in_str
            if ch == "," and depth == 0 and not in_str:
                parts.append("".join(cur).strip())
                cur = []
                continue
            if ch == "(" and not in_str:
                depth += 1
            elif ch == ")" and not in_str:
                depth -= 1
            cur.append(ch)
        parts.append("".join(cur).strip())
        return tuple(parts)

    def layout(self):
        loc = 0
        for lineno, raw in enumerate(self.lines, start=1):
            text = self._strip_comment(raw)
            stripped = text.strip()
            if not stripped:
                continue

            # optional single leading label
            while True:
                m = re.match(r"^\s*([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:", text)
                if not m:
                    break
                name = m.group(1)
                if name in self.symbols:
                    self._err(f"duplicate label '{name}'", lineno,
                              text.index(name) + 1, len(name))
                self.symbols[name] = loc
                text = text[m.end():]
            stripped = text.strip()
            if not stripped:
                continue

            col = raw.find(stripped.split()[0]) + 1
            head, _, rest = stripped.partition(" ")
            head = head.lower()
            operands = self._split_operands(rest)

            if head == ".org":
                if len(operands) != 1:
                    self._err(".org takes one address", lineno, col)
                val = self._eval(operands[0], lineno, col, allow_fwd=False)
                loc = val
                self.seg_starts.add(loc)
            elif head == ".equ":
                if len(operands) != 2:
                    self._err(".equ takes name, value", lineno, col)
                name = operands[0]
                if not _LABEL_RE.match(name):
                    self._err(f"bad symbol name '{name}'", lineno, col)
                if name in self.symbols:
                    self._err(f"duplicate symbol '{name}'", lineno, col)
                self.symbols[name] = self._eval(operands[1], lineno, col,
                                                allow_fwd=False)
            elif head == ".word":
                if not operands:
                    self._err(".word needs at least one value", lineno, col)
                self.stmts.append(_Stmt(lineno, col, "word", loc, operands=operands))
                loc += 4 * len(operands)
            elif head == ".byte":
                if not operands:
                    self._err(".byte needs at least one value", lineno, col)
                self.stmts.append(_Stmt(lineno, col, "byte", loc, operands=operands))
                loc += len(operands)
            elif head == ".ascii":
                s = self._parse_string(rest.strip(), lineno, col)
                self.stmts.append(_Stmt(lineno, col, "ascii", loc, values=(s,)))
                loc += len(s)
            elif head == ".illegal":
                if len(operands) != 1:
                    self._err(".illegal takes one word", lineno, col)
                self._need_aligned(loc, lineno, col)
                self.stmts.append(_Stmt(lineno, col, "illegal", loc, operands=operands))
                loc += 4
            elif head.startswith("."):
                self._err(f"unknown directive '{head}'", lineno, col, len(head))
            else:
                loc = self._layout_instr(head, operands, loc, lineno, col)
        return self

    def _need_aligned(self, loc: int, lineno: int, col: int):
        if loc & 3:
            self._err(f"instruction at unaligned address 0x{loc:x}", lineno, col)

    def _layout_instr(self, mnem: str, operands: tuple[str, ...],
                      loc: int, lineno: int, col: int) -> int:
        self._need_aligned(loc, lineno, col)
        if self.entry is None:
            self.entry = loc
        if mnem == "li":
            if len(operands) != 2:
                self._err("li takes rd, imm", lineno, col)
            self.stmts.append(_Stmt(lineno, col, "instr", loc, mnemonic="li",
                                    operands=operands, li_slot=1))
            self.stmts.append(_Stmt(lineno, col, "instr", loc + 4, mnemonic="li",
                                    operands=operands, li_slot=2))
            return loc + 8
        if mnem not in isa.ENCODINGS and mnem not in ("nop", "mv", "j", "ret"):
            self._err(f"unknown mnemonic '{mnem}'", lineno, col, len(mnem))
        self.stmts.append(_Stmt(lineno, col, "instr", loc,
                                mnemonic=mnem, operands=operands))
        return loc + 4

    def _parse_string(self, text: str, lineno: int, col: int) -> bytes:
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            self._err('.ascii needs a double-quoted string', lineno, col)
        body = text[1:-1]
        out = bytearray()
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                i += 1
                if i >= len(body):
                    self._err("dangling escape in string", lineno, col)
                esc = body[i]
                out.append({"n": 10, "t": 9, "0": 0, "\\": 92, '"': 34}.get(esc, ord(esc)))
            else:
                out.append(ord(ch))
            i += 1
        return bytes(out)

    # ---------------- pass 2: encode ----------------

    def _eval(self, expr: str, lineno: int, col: int, allow_fwd: bool = True):
        """label, integer, or label+/-constant."""

        expr = expr.strip()
        val = _parse_int(expr)
        if val is not None:
            return val
        m = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*([+-])\s*(\S+)$", expr)
        if m:
            base = self._eval(m.group(1), lineno, col, allow_fwd)
            off = _parse_int(m.group(3))
            if off is None:
                self._err(f"bad expression '{expr}'", lineno, col, len(expr))
            return base + off if m.group(2) == "+" else base - off
        if _LABEL_RE.match(expr):
            if expr in self.symbols:
                return self.symbols[expr]
            if not allow_fwd:
                self._err(f"symbol '{expr}' not yet defined", lineno, col, len(expr))
            self._err(f"unresolved symbol '{expr}'", lineno, col, len(expr))
        self._err(f"bad expression '{expr}'", lineno, col, len(expr))

    def _reg(self, text: str, lineno: int, col: int) -> int:
        name = text.strip().lower()
        if name in ABI_NAMES:
            return ABI_NAMES[name]
        if name.startswith("x"):
            n = _parse_int(name[1:])
            if n is not None and 0 <= n <= 31:
                return n
        self._err(f"bad register '{text}'", lineno, col, len(text))

    def _mem_operand(self, text: str, lineno: int, col: int) -> tuple[int, int]:
        m = _MEM_RE.match(text.strip())
        if not m:
            self._err(f"expected imm(reg), got '{text}'", lineno, col, len(text))
        off = self._eval(m.group(1) or "0", lineno, col)
        return off, self._reg(m.group(2), lineno, col)

    def _target(self, text: str, pc: int, lineno: int, col: int) -> int:
        """Branch/jump target: bare integers are pc-relative offsets,
        symbols are absolute addresses."""

        lit = _parse_int(text.strip())
        if lit is not None:
            return lit
        return self._eval(text, lineno, col) - pc

    def _encode_stmt(self, st: _Stmt) -> int:
        mnem, ops, pc = st.mnemonic, st.operands, st.addr
        ln, col = st.line, st.column

        def need(n):
            if len(ops) != n:
                self._err(f"{mnem} takes {n} operand(s)", ln, col)

        if mnem == "li":
            need(2)
            rd = self._reg(ops[0], ln, col)
            value = self._eval(ops[1], ln, col)
            if not -(1 << 31) <= value < (1 << 32):
                self._err(f"li immediate out of range: {value}", ln, col)
            value &= 0xFFFFFFFF
            lo = value & 0xFFF
            if lo >= 0x800:
                lo -= 0x1000
            hi = (value - lo) & 0xFFFFFFFF
            if st.li_slot == 1:
                return isa.encode("lui", rd=rd, imm=hi - (1 << 32) if hi >= 1 << 31 else hi)
            return isa.encode("addi", rd=rd, rs1=rd, imm=lo)
        if mnem == "nop":
            need(0)
            return isa.NOP_WORD
        if mnem == "mv":
            need(2)
            return isa.encode("addi", rd=self._reg(ops[0], ln, col),
                              rs1=self._reg(ops[1], ln, col), imm=0)
        if mnem == "j":
            need(1)
            return self._enc("jal", ln, col, rd=0, imm=self._target(ops[0], pc, ln, col))
        if mnem == "ret":
            need(0)
            return isa.encode("jalr", rd=0, rs1=1, imm=0)

        fmt = isa.ENCODINGS[mnem][0]
        if fmt == "R":
            need(3)
            return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col),
                             rs1=self._reg(ops[1], ln, col),
                             rs2=self._reg(ops[2], ln, col))
        if fmt == "SH":
            need(3)
            return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col),
                             rs1=self._reg(ops[1], ln, col),
                             imm=self._eval(ops[2], ln, col))
        if fmt == "I":
            if mnem in isa.MEM_OPERAND:
                need(2)
                off, rs1 = self._mem_operand(ops[1], ln, col)
                return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col),
                                 rs1=rs1, imm=off)
            need(3)
            return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col),
                             rs1=self._reg(ops[1], ln, col),
                             imm=self._eval(ops[2], ln, col))
        if fmt == "S":
            need(2)
            off, rs1 = self._mem_operand(ops[1], ln, col)
            return self._enc(mnem, ln, col, rs2=self._reg(ops[0], ln, col),
                             rs1=rs1, imm=off)
        if fmt == "B":
            need(3)
            imm = self._target(ops[2], pc, ln, col)
            if imm & 1:
                self._err(f"misaligned branch target (offset {imm})", ln, col)
            return self._enc(mnem, ln, col, rs1=self._reg(ops[0], ln, col),
                             rs2=self._reg(ops[1], ln, col), imm=imm)
        if fmt == "U":
            need(2)
            hi = self._eval(ops[1], ln, col)
            if not -0x80000 <= hi <= 0xFFFFF:
                self._err(f"{mnem} immediate out of range: {hi}", ln, col)
            value = (hi & 0xFFFFF) << 12
            if value >= 1 << 31:
                value -= 1 << 32
            return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col), imm=value)
        if fmt == "J":
            if len(ops) == 1:  # jal target  (rd defaults to ra)
                return self._enc(mnem, ln, col, rd=1,
                                 imm=self._target(ops[0], pc, ln, col))
            need(2)
            return self._enc(mnem, ln, col, rd=self._reg(ops[0], ln, col),
                             imm=self._target(ops[1], pc, ln, col))
        if fmt == "F":
            if len(ops) == 0:
                return isa.encode("fence", imm=0x0FF)
            need(1)
            return self._enc(mnem, ln, col, imm=self._eval(ops[0], ln, col))
        if fmt == "E":
            need(0)
            return isa.encode(mnem)
        raise AssertionError(fmt)

    def _enc(self, mnem: str, ln: int, col: int, **kw) -> int:
        try:
            return isa.encode(mnem, **kw)
        except ValueError as e:
            self._err(str(e), ln, col)

    def _emit(self, addr: int, data: bytes, ln: int, col: int):
        for i, b in enumerate(data):
            if addr + i in self.memory:
                self._err(f"overlapping emission at 0x{addr + i:x}", ln, col)
            self.memory[addr + i] = b

    def encode_all(self) -> Program:
        for st in self.stmts:
            if st.kind == "instr":
                word = self._encode_stmt(st)
                self._emit(st.addr, word.to_bytes(4, "little"), st.line, st.column)
            elif st.kind == "illegal":
                val = self._eval(st.operands[0], st.line, st.column) & 0xFFFFFFFF
                self._emit(st.addr, val.to_bytes(4, "little"), st.line, st.column)
            elif st.kind == "word":
                for i, op in enumerate(st.operands):
                    val = self._eval(op, st.line, st.column) & 0xFFFFFFFF
                    self._emit(st.addr + 4 * i, val.to_bytes(4, "little"),
                               st.line, st.column)
            elif st.kind == "byte":
                for i, op in enumerate(st.operands):
                    val = self._eval(op, st.line, st.column)
                    if not -128 <= val <= 255:
                        self._err(f".byte value out of range: {val}", st.line, st.column)
                    self._emit(st.addr + i, bytes([val & 0xFF]), st.line, st.column)
            elif st.kind == "ascii":
                self._emit(st.addr, st.values[0], st.line, st.column)

        segments = []
        addrs = sorted(self.memory)
        if addrs:
            start = prev = addrs[0]
            buf = bytearray([self.memory[start]])
            for a in addrs[1:]:
                if a == prev + 1 and a not in self.seg_starts:
                    buf.append(self.memory[a])
                else:
                    segments.append(Segment(start, bytes(buf)))
                    start = a
                    buf = bytearray([self.memory[a]])
                prev = a
            segments.append(Segment(start, bytes(buf)))
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

    segments = []
    for ent in manifest["segments"]:
        try:
            base, name, length, digest = ent["base"], ent["file"], ent["len"], ent["sha256"]
        except (TypeError, KeyError) as e:
            raise ImageError(f"malformed segment entry in {path}") from e
        if type(base) is not int or type(length) is not int \
                or not isinstance(name, str) or not isinstance(digest, str):
            raise ImageError(f"malformed segment entry in {path}")
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
