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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
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

ADDRESS_SPACE = 1 << 32  # every address is below this

_SYMBOL = r"[A-Za-z_.$][A-Za-z0-9_.$]*"  # a label or .equ name
_LABEL_RE = re.compile(rf"^{_SYMBOL}$")
_LABEL_DEF_RE = re.compile(rf"^\s*({_SYMBOL})\s*:")
_OFFSET_RE = re.compile(rf"^({_SYMBOL})\s*([+-])\s*(\S+)$")
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


# pseudo instruction -> (instruction, written operand kinds, fixed fields)
_PSEUDO = {
    "nop": ("addi", (), {}),
    "mv": ("addi", ("rd", "rs1"), {}),
    "j": ("jal", ("target",), {}),
    "ret": ("jalr", (), {"rs1": 1}),
}


class Assembler:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.symbols: dict[str, int] = {}
        # (address, line, column, producer of the bytes to emit there)
        self.items: list[tuple[int, int, int, Callable[[], bytes]]] = []
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

            # leading labels, any number of them: "a: b: addi ..." defines both
            while True:
                m = _LABEL_DEF_RE.match(text)
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

            def item(size, produce, *args):
                nonlocal loc
                if loc + size > ADDRESS_SPACE:
                    self._err(f"{size} byte(s) at 0x{loc:x} run past the "
                              f"32-bit address space", lineno, col)
                self.items.append((loc, lineno, col,
                                   partial(produce, *args, lineno, col)))
                loc += size

            if head == ".org":
                if len(operands) != 1:
                    self._err(".org takes one address", lineno, col)
                val = self._eval(operands[0], lineno, col, allow_fwd=False)
                if not 0 <= val < ADDRESS_SPACE:
                    self._err(f".org address {val:#x} outside the 32-bit "
                              f"address space", lineno, col)
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
                for op in operands:
                    item(4, self._word, op)
            elif head == ".byte":
                if not operands:
                    self._err(".byte needs at least one value", lineno, col)
                for op in operands:
                    item(1, self._byte, op)
            elif head == ".ascii":
                s = self._parse_string(rest.strip(), lineno, col)
                item(len(s), lambda data, _ln, _col: data, s)
            elif head == ".illegal":  # an aligned one-value .word
                if len(operands) != 1:
                    self._err(".illegal takes one word", lineno, col)
                self._need_aligned(loc, lineno, col)
                item(4, self._word, operands[0])
            elif head.startswith("."):
                self._err(f"unknown directive '{head}'", lineno, col, len(head))
            else:
                self._need_aligned(loc, lineno, col)
                if self.entry is None:
                    self.entry = loc
                if head == "li":
                    if len(operands) != 2:
                        self._err("li takes rd, imm", lineno, col)
                    item(8, self._li, *operands)
                elif head in isa.OPERANDS or head in _PSEUDO:
                    item(4, self._instr, head, operands, loc)
                else:
                    self._err(f"unknown mnemonic '{head}'", lineno, col,
                              len(head))
        return self

    def _need_aligned(self, loc: int, lineno: int, col: int):
        if loc & 3:
            self._err(f"instruction at unaligned address 0x{loc:x}", lineno, col)

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
        m = _OFFSET_RE.match(expr)
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

    def _operand(self, kind: str, text: str, mnem: str, pc: int,
                 ln: int, col: int) -> dict[str, int]:
        """The encoder fields one written operand of `kind` sets."""

        if kind == "mem":
            m = _MEM_RE.match(text.strip())
            if not m:
                self._err(f"expected imm(reg), got '{text}'", ln, col, len(text))
            off = self._eval(m.group(1) or "0", ln, col)
            return {"imm": off, "rs1": self._reg(m.group(2), ln, col)}
        if kind == "imm":
            return {"imm": self._eval(text, ln, col)}
        if kind == "target":
            # bare integers are pc-relative offsets, symbols are addresses
            imm = _parse_int(text.strip())
            if imm is None:
                imm = self._eval(text, ln, col) - pc
            if imm & 1 and isa.ENCODINGS[mnem][0] == "B":
                self._err(f"misaligned branch target (offset {imm})", ln, col)
            return {"imm": imm}
        if kind == "upper":
            hi = self._eval(text, ln, col)
            if not -0x80000 <= hi <= 0xFFFFF:
                self._err(f"{mnem} immediate out of range: {hi}", ln, col)
            value = (hi & 0xFFFFF) << 12
            return {"imm": value - (1 << 32) if value >= 1 << 31 else value}
        return {kind: self._reg(text, ln, col)}

    def _instr(self, mnem: str, ops: tuple[str, ...], pc: int,
               ln: int, col: int) -> bytes:
        real, kinds, fields = _PSEUDO.get(mnem) or (mnem, isa.OPERANDS[mnem], {})
        if mnem == "jal" and len(ops) == 1:  # jal target: rd is ra
            kinds, fields = ("target",), {"rd": 1}
        if mnem == "fence" and not ops:
            kinds, fields = (), {"imm": 0x0FF}
        if len(ops) != len(kinds):
            self._err(f"{mnem} takes {len(kinds)} operand(s)", ln, col)
        written = list(zip(kinds, ops))
        # a memory operand, upper immediate or branch target is read before
        # the registers: of two bad operands, that one is reported
        if kinds and (kinds[-1] in ("mem", "upper")
                      or isa.ENCODINGS[real][0] == "B"):
            written.insert(0, written.pop())
        fields = dict(fields)
        for kind, text in written:
            fields.update(self._operand(kind, text, real, pc, ln, col))
        return self._enc(real, ln, col, **fields).to_bytes(4, "little")

    def _li(self, rd_text: str, imm_text: str, ln: int, col: int) -> bytes:
        """`li rd, imm` is always lui + addi, whatever the value."""

        rd = self._reg(rd_text, ln, col)
        value = self._eval(imm_text, ln, col)
        if not -(1 << 31) <= value < (1 << 32):
            self._err(f"li immediate out of range: {value}", ln, col)
        value &= 0xFFFFFFFF
        lo = value & 0xFFF
        if lo >= 0x800:
            lo -= 0x1000
        hi = (value - lo) & 0xFFFFFFFF
        lui = isa.encode("lui", rd=rd,
                         imm=hi - (1 << 32) if hi >= 1 << 31 else hi)
        addi = isa.encode("addi", rd=rd, rs1=rd, imm=lo)
        return (lui | addi << 32).to_bytes(8, "little")

    def _word(self, text: str, ln: int, col: int) -> bytes:
        val = self._eval(text, ln, col)
        if not -(1 << 31) <= val < (1 << 32):
            self._err(f"word value out of range: {val}", ln, col)
        return (val & 0xFFFFFFFF).to_bytes(4, "little")

    def _byte(self, text: str, ln: int, col: int) -> bytes:
        val = self._eval(text, ln, col)
        if not -128 <= val <= 255:
            self._err(f".byte value out of range: {val}", ln, col)
        return bytes([val & 0xFF])

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
        for addr, ln, col, produce in self.items:
            self._emit(addr, produce(), ln, col)

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
