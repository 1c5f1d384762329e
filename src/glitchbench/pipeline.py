"""Cycle-accurate 4-stage in-order pipeline with glitch injection hooks.

Stages are IF, ID, EX, WB with three inter-stage latches (IF_ID, ID_EX,
EX_WB). Behavior downstream of a latch is determined entirely by the latch
contents, so corrupting latched bits changes execution the way it would in
the modeled netlist. Per-slot metadata rides alongside each latch; part of
it decides retires, traps and halts (see SlotMeta and Pipeline.state_key).

Microarchitecture rules:
  * operands are captured at the ID->EX edge: register file (written by WB
    earlier the same cycle) with a single bypass from the EX output of this
    cycle (never load data);
  * a load consumed by the next instruction inserts one stall bubble;
  * all control flow resolves in EX; a taken branch or any jump flushes IF
    and ID (two wasted slots);
  * DIV/REM hold EX for 32 cycles, MUL family takes one;
  * memory reads and writes happen in EX, register writeback in WB;
  * faults ride the pipeline in program order as trap carriers and take
    effect at EX (flushing younger work), halting when they retire.

A glitch at cycle n shortens the edge that opened cycle n, so it attacks
the values latched for the instructions sitting in ID, EX, and WB during
cycle n. Which captures a glitch can reach is `glitch.corruptible` of the
capture profile: a squashed instruction still drives the latch inputs and
stays corruptible, which is how ghost revivals happen. One injection
path: advance to cycle n, then glitch that edge (`_apply_glitch`), on a
fork (`glitched`) or in place (`run_pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import machine
from .asm import Program
from .glitch import (CorruptionEvent, GlitchSpec, IllegalPolicy,
                     corruptible, plan_effect)
from .isa import (CLASS_OF, NOP_WORD, OP_ALU_REG, OP_LOAD, OP_STORE,
                  REG_READS, IClass, Illegal, by_funct3, decode)
from .latches import LATCH_TYPE, LATCHES, bubble
from .machine import (ALU_OP4, BRANCH_OP4, ArchState, StepEvent, alu,
                      branch_taken, load_program)
from .timing import TimingModel

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# 16-bit control word carried in ID_EX. Semantics in EX depend only on this
# (plus operand/imm/rd/pc fields), so a corrupted control word reroutes the
# slot through whatever unit the bits now select. Undefined encodings act as
# a nop so every 16-bit value executes deterministically.

UNIT_ALU, UNIT_MULDIV, UNIT_LOAD, UNIT_STORE = 0, 1, 2, 3
UNIT_BRANCH, UNIT_JUMP, UNIT_UPPER, UNIT_SYSTEM = 4, 5, 6, 7

F_USE_IMM = 1 << 7
F_REG_WRITE = 1 << 8
F_SUBOP = 1 << 9


def _ctl(unit: int, op4: int = 0, *, imm: bool = False, wr: bool = False,
         subop: int = 0, sys2: int = 0) -> int:
    return (op4 | (unit << 4) | (F_USE_IMM if imm else 0)
            | (F_REG_WRITE if wr else 0) | (F_SUBOP if subop else 0)
            | (sys2 << 10))


# the op4 code of a multiply/divide, load or store is its funct3
_MULDIV_MNEM = by_funct3(OP_ALU_REG, 1)
_LOAD_MNEM = by_funct3(OP_LOAD)
_STORE_MNEM = by_funct3(OP_STORE)

TRAP_CARRIER_CAUSES = ("ILLEGAL", "FETCH_FAULT", "MISALIGNED_FETCH")


def trap_carrier_control(cause: str) -> int:
    return _ctl(UNIT_SYSTEM, TRAP_CARRIER_CAUSES.index(cause), sys2=3)


CONTROL: dict[str, int] = {}
for _m, _op in ALU_OP4.items():
    CONTROL[_m] = _ctl(UNIT_ALU, _op, imm=CLASS_OF[_m] is IClass.ALU_IMM,
                       wr=True)
for _op, _m in _MULDIV_MNEM.items():
    CONTROL[_m] = _ctl(UNIT_MULDIV, _op, wr=True)
for _op, _m in _LOAD_MNEM.items():
    CONTROL[_m] = _ctl(UNIT_LOAD, _op, imm=True, wr=True)
for _op, _m in _STORE_MNEM.items():
    CONTROL[_m] = _ctl(UNIT_STORE, _op, imm=True)
for _m, _op in BRANCH_OP4.items():
    CONTROL[_m] = _ctl(UNIT_BRANCH, _op)
CONTROL["jal"] = _ctl(UNIT_JUMP, imm=True, wr=True, subop=0)
CONTROL["jalr"] = _ctl(UNIT_JUMP, imm=True, wr=True, subop=1)
CONTROL["lui"] = _ctl(UNIT_UPPER, imm=True, wr=True, subop=0)
CONTROL["auipc"] = _ctl(UNIT_UPPER, imm=True, wr=True, subop=1)
CONTROL["fence"] = _ctl(UNIT_SYSTEM, sys2=0)
CONTROL["ecall"] = _ctl(UNIT_SYSTEM, sys2=1)
CONTROL["ebreak"] = _ctl(UNIT_SYSTEM, sys2=2)


class _WordTable(dict):
    """word -> (mnemonic, class name, control word, use_rs1, use_rs2, rs1,
    rs2, rd, imm & MASK32), everything fetch and decode derive from a word,
    or None for an illegal word. rd is 0 unless the control word writes a
    register. A word is decoded the first time it is looked up."""

    def __missing__(self, word: int) -> tuple | None:
        d = decode(word)
        entry = None
        if not isinstance(d, Illegal):
            m = d.mnemonic
            control = CONTROL[m]
            entry = (m, d.iclass.value, control, *REG_READS[m], d.rs1, d.rs2,
                     d.rd if control & F_REG_WRITE else 0, d.imm & MASK32)
        self[word] = entry
        return entry


WORDS = _WordTable()

# latch -> attributes of its value, meta, previous value and previous meta
_LATCH_ATTRS = {latch: (a, f"{a}_meta", f"prev_{a}", f"prev_{a}_meta")
                for latch in LATCHES for a in [latch.lower()]}

IfId, IdEx, ExWb = (LATCH_TYPE[latch] for latch in LATCHES)
_IF_ID_BUBBLE, _ID_EX_BUBBLE, _EX_WB_BUBBLE = (bubble(latch)
                                               for latch in LATCHES)

# capture profiles, latch -> (fresh, driving iclass name | None)
_HELD = (False, None)
_RESET_CAPTURES = {latch: (True, None) for latch in LATCHES}
_EX_BUSY_CAPTURES = {"IF_ID": _HELD, "ID_EX": _HELD, "EX_WB": (True, None)}


# ---------------------------------------------------------------------------


class SlotMeta(NamedTuple):
    """Metadata that travels with a latch slot, as an immutable value.

    `pc`, `next_pc`, `trap_cause`, `fault_cause` and `halt` are semantic:
    they decide what a slot retires as, whether it traps and whether the
    machine halts. `word_corrupted` decides NOP-replacement events, and
    `mem_write`/`output` feed the retire log. `dyn_id`, `raw`, `mnemonic`
    and `iclass_name` only label traces, retire records and glitch
    captures. `Pipeline.state_key` holds the fields that count.
    Every valid slot carries one. On the clean path each stage builds the
    next positionally; the trap-carrier and squash paths use `_replace`.
    """

    dyn_id: int
    pc: int = 0
    raw: int = 0
    mnemonic: str = ""
    iclass_name: str | None = None
    fault_cause: str | None = None
    trap_cause: str | None = None
    next_pc: int = 0
    mem_write: tuple | None = None
    output: int | None = None
    halt: tuple | None = None
    word_corrupted: bool = False


NOP_REPLACEMENT = "NOP_REPLACEMENT"
MUTATED_INSTRUCTION = "MUTATED_INSTRUCTION"
GHOST_INSTRUCTION = "GHOST_INSTRUCTION"


@dataclass(frozen=True, slots=True)
class MechanismEvent:
    kind: str  # NOP_REPLACEMENT | MUTATED_INSTRUCTION | GHOST_INSTRUCTION
    cycle: int
    pc: int
    detail: str = ""


@dataclass(frozen=True, slots=True)
class CycleTrace:
    cycle: int
    occupancy: dict  # stage -> (pc, mnemonic, iclass_name, dyn_id) | None
    captures: dict   # latch -> (fresh, iclass_name | None)


@dataclass(slots=True)
class PipelineRun:
    arch: ArchState
    status: str  # HALTED | NOT_HALTED
    cycles: int
    retires: list
    corruptions: list
    mechanisms: list
    trace: list | None = None

    def retire_pcs(self) -> list[int]:
        return [e.pc for e in self.retires]


class Pipeline:
    """Pipeline simulator; one call to clock() is one cycle.

    Latch values and their metas are immutable, and they and the capture
    profile are only ever rebound by a cycle or a glitch, so a fork shares
    them.
    """

    def __init__(self, program: Program, *,
                 timing: TimingModel | None = None, strict: bool = False,
                 record_trace: bool = False):
        self.arch = load_program(program, strict)
        self.timing = timing
        self.fetch_pc = self.arch.pc
        self.cycle = 0
        self.if_id = self.prev_if_id = _IF_ID_BUBBLE
        self.id_ex = self.prev_id_ex = _ID_EX_BUBBLE
        self.ex_wb = self.prev_ex_wb = _EX_WB_BUBBLE
        self.if_id_meta: SlotMeta | None = None
        self.id_ex_meta: SlotMeta | None = None
        self.ex_wb_meta: SlotMeta | None = None
        self.prev_if_id_meta: SlotMeta | None = None
        self.prev_id_ex_meta: SlotMeta | None = None
        self.prev_ex_wb_meta: SlotMeta | None = None
        # capture profile of the edge that opened the current cycle
        self.captures = _RESET_CAPTURES
        self.ex_remaining = 0
        self.fetch_stopped = False
        self.illegal_policy = IllegalPolicy.TRAP
        self.dyn_counter = 0
        self.retires: list[StepEvent] = []
        self.corruptions: list[CorruptionEvent] = []
        self.mechanisms: list[MechanismEvent] = []
        # a cycle's entry is made at its opening edge, before any glitch
        self.trace = [self._trace_entry()] if record_trace else None

    # -- setup ---------------------------------------------------------------

    def fork(self) -> "Pipeline":
        """Cheap copy for what-if probing. Latch values and metas are
        shared; the architectural state (including the output log) is
        copied, and the event logs restart empty, untraced."""

        p = object.__new__(Pipeline)
        p.__dict__.update(self.__dict__)
        p.arch = self.arch.copy()
        p.retires = []
        p.corruptions = []
        p.mechanisms = []
        p.trace = None
        return p

    def glitched(self, spec: GlitchSpec) -> "Pipeline":
        """A fork whose opening edge `spec` has glitched: it stands at
        `spec.cycle` with the edge logged, and its next clock() runs the
        glitched cycle. A refused glitch leaves this pipeline as it was."""

        fork = self.fork()
        fork._apply_glitch(spec)
        return fork

    def state_key(self) -> tuple:
        """Hashable summary of everything a glitch-free continuation reads.

        Two pipelines at one cycle with equal keys retire the same pcs,
        raise the same mechanisms and end in the same architectural state.
        Left out on purpose: the previous latches and the capture profile
        (read only by a glitch), dynamic ids, and the raw word, mnemonic and
        class of each slot (read only by traces, retire records and glitch
        captures). A dead slot keys as None: only a glitch could revive it.
        """

        a = self.arch
        return (_slot_key(self.if_id, self.if_id_meta),
                _slot_key(self.id_ex, self.id_ex_meta),
                _slot_key(self.ex_wb, self.ex_wb_meta),
                self.fetch_pc, self.fetch_stopped, self.ex_remaining,
                self.illegal_policy,
                a.pc, tuple(a.regs),
                # exact items: an absent word and a zero word differ for
                # fetches and for strict loads
                frozenset(a.mem.items()),
                tuple(a.output_log), a.halted, a.halt_cause, a.exit_code,
                a.strict)

    def run(self, max_cycles: int) -> None:
        while self.cycle < max_cycles and self.clock():
            pass

    def result(self) -> PipelineRun:
        status = "HALTED" if self.arch.halted else "NOT_HALTED"
        return PipelineRun(self.arch, status, self.cycle, self.retires,
                           self.corruptions, self.mechanisms, self.trace)

    # -- one cycle -----------------------------------------------------------

    def clock(self) -> bool:
        """Advance one cycle; False once the machine has halted."""

        if self.arch.halted:
            return False
        cyc = self.cycle
        # WB first: its register write is visible to ID in the same cycle
        self._writeback()
        if self.arch.halted:
            self.cycle = cyc + 1
            return False

        (ex_completed, ex_wb_next, ex_wb_meta, ex_forward,
         redirect, kill_younger) = self._execute()

        # next contents of each latch; a held latch keeps its own
        if not ex_completed:
            # multi-cycle op keeps EX: IF_ID and ID_EX hold
            if_id_next, if_meta = self.if_id, self.if_id_meta
            id_ex_next, id_ex_meta = self.id_ex, self.id_ex_meta
            captures = _EX_BUSY_CAPTURES
        else:
            squash = kill_younger or redirect is not None
            id_ex_next, id_ex_meta, id_class, stall = \
                self._decode_stage(ex_forward, squash)
            if squash:
                # the squashed fetch still drives IF_ID, marked invalid
                id_ex_next = id_ex_next._replace(valid=0)
                if_id_next, if_meta, if_class = self._fetch_slot()
                if_id_next = if_id_next._replace(valid=0)
                if kill_younger:
                    self.fetch_stopped = True
                else:
                    self.fetch_pc = redirect
            elif stall:
                # consumer waits in ID; IF_ID holds, nothing fetched
                if_id_next, if_meta = self.if_id, self.if_id_meta
            elif self.fetch_stopped:
                if_id_next, if_meta, if_class = _IF_ID_BUBBLE, None, None
            else:
                if_id_next, if_meta, if_class = self._fetch_slot()
                self.fetch_pc = (self.fetch_pc + 4) & MASK32
            captures = {
                "IF_ID": _HELD if stall else (True, if_class),
                "ID_EX": (True, id_class),
                "EX_WB": (True,
                          ex_wb_meta.iclass_name if ex_wb_meta else None),
            }

        # the edge that closes this cycle
        self.prev_if_id, self.if_id = self.if_id, if_id_next
        self.prev_if_id_meta, self.if_id_meta = self.if_id_meta, if_meta
        self.prev_id_ex, self.id_ex = self.id_ex, id_ex_next
        self.prev_id_ex_meta, self.id_ex_meta = self.id_ex_meta, id_ex_meta
        self.prev_ex_wb, self.ex_wb = self.ex_wb, ex_wb_next
        self.prev_ex_wb_meta, self.ex_wb_meta = self.ex_wb_meta, ex_wb_meta
        self.captures = captures
        self.cycle = cyc + 1
        if self.trace is not None:
            self.trace.append(self._trace_entry())
        return True

    # -- stages ----------------------------------------------------------------

    def _writeback(self) -> None:
        ew = self.ex_wb
        if not ew.valid:
            return
        arch = self.arch
        (_, pc, raw, mnemonic, _, _, trap_cause, next_pc, mem_write, output,
         halt, _) = self.ex_wb_meta
        # a trap slot (next_pc = pc, no memory write, output or halt) writes
        # no register, whatever a glitch left in its rd
        rd = 0 if trap_cause else ew.rd & 31
        reg_write = None
        if rd:
            new = (ew.mem_data if ew.is_load & 1 else ew.result) & MASK32
            reg_write = (rd, arch.regs[rd], new)
            arch.regs[rd] = new
        halt_cause = trap_cause or (halt[0] if halt else None)
        self.retires.append(StepEvent(pc, next_pc, raw, mnemonic, reg_write,
                                      mem_write, output, halt_cause))
        arch.pc = next_pc
        if halt_cause:
            arch.halted = True
            arch.halt_cause = halt_cause
            if halt:
                arch.exit_code = halt[1]

    def _execute(self):
        """Returns (completed, ex_wb_next, ex_wb_meta, forward, redirect,
        kill_younger)."""

        ie = self.id_ex
        if not ie.valid:
            return True, _EX_WB_BUBBLE, None, None, None, False

        ctl = ie.control
        op4 = ctl & 15
        unit = (ctl >> 4) & 7

        if self.ex_remaining == 0:
            self.ex_remaining = 32 if (unit == UNIT_MULDIV and 4 <= op4 <= 7) \
                else 1
        self.ex_remaining -= 1
        if self.ex_remaining:
            return False, _EX_WB_BUBBLE, None, None, None, False

        meta = self.id_ex_meta
        rs1 = ie.rs1_val
        rs2 = ie.rs2_val
        imm = ie.imm
        rd = ie.rd & 31 if ctl & F_REG_WRITE else 0
        pc = ie.pc & MASK32
        subop = (ctl >> 9) & 1
        sys2 = (ctl >> 10) & 3

        result = 0
        is_load = 0
        mem_data = 0
        trap = None
        halt = None
        mem_write = None
        output = None
        redirect = None
        next_pc = (pc + 4) & MASK32

        if unit == UNIT_ALU:
            result = alu(op4, rs1, imm if ctl & F_USE_IMM else rs2)
        elif unit == UNIT_MULDIV:
            mnem = _MULDIV_MNEM.get(op4)
            result = machine.muldiv(mnem, rs1, rs2) if mnem else 0
        elif unit == UNIT_LOAD:
            mnem = _LOAD_MNEM.get(op4)
            if mnem is None:
                rd = 0
            else:
                addr = (rs1 + imm) & MASK32
                value, trap = machine.load_from(self.arch, mnem, addr)
                if trap is None:
                    is_load = 1
                    mem_data = value
                    result = addr
        elif unit == UNIT_STORE:
            mnem = _STORE_MNEM.get(op4)
            if mnem is not None:
                addr = (rs1 + imm) & MASK32
                mem_write, output, halt, trap = machine.store_effect(
                    self.arch, mnem, addr, rs2)
        elif unit == UNIT_BRANCH or unit == UNIT_JUMP:
            # every control transfer: target, misaligned-fetch trap, redirect
            # and link; a taken branch to pc + 4 still redirects
            if unit == UNIT_JUMP or branch_taken(op4, rs1, rs2):
                if unit == UNIT_JUMP and subop:  # jalr
                    target = (rs1 + imm) & 0xFFFFFFFE
                else:
                    target = (pc + imm) & MASK32
                if target & 3:
                    trap = "MISALIGNED_FETCH"
                else:
                    if unit == UNIT_JUMP:
                        result = next_pc
                    redirect = next_pc = target
        elif unit == UNIT_UPPER:
            result = (pc + imm) & MASK32 if subop else imm & MASK32
        else:  # UNIT_SYSTEM
            if sys2 == 1:
                halt = ("ECALL", 0)
            elif sys2 == 2:
                halt = ("EBREAK", 0)
            elif sys2 == 3:
                cause = TRAP_CARRIER_CAUSES[op4] \
                    if op4 < len(TRAP_CARRIER_CAUSES) else "ILLEGAL"
                trap = meta.fault_cause or cause

        if trap:
            rd = 0  # a trap slot writes nothing and retires at its own pc
            next_pc = pc
        (dyn_id, _, raw, mnemonic, iclass, fault_cause, trap_cause,
         _, _, _, _, word_corrupted) = meta
        out_meta = SlotMeta(dyn_id, pc, raw, mnemonic, iclass, fault_cause,
                            trap or trap_cause, next_pc, mem_write, output,
                            halt, word_corrupted)
        slot = ExWb(result, rd, is_load, mem_data, 1)
        forward = (rd, result) if rd and not is_load else None
        return (True, slot, out_meta, forward, redirect,
                halt is not None or trap is not None)

    def _decode_stage(self, ex_forward, squash):
        """Returns (id_ex_next, meta, capture class, stall)."""

        f = self.if_id
        if not f.valid:
            return _ID_EX_BUBBLE, None, None, False
        meta = self.if_id_meta
        word = f.instr_word
        pc = f.pc & MASK32

        e = None if meta.fault_cause else WORDS[word]
        if e is None and not meta.fault_cause:
            if self.illegal_policy is IllegalPolicy.NOP_REPLACE:
                if meta.word_corrupted:
                    self.mechanisms.append(MechanismEvent(
                        NOP_REPLACEMENT, self.cycle, pc,
                        f"word 0x{word:08X}"))
                e = WORDS[NOP_WORD]
            else:
                # an illegal carrier is labelled by the latch word, a fetch
                # fault by its meta (which a ghost revival may bring along)
                meta = meta._replace(raw=word, mnemonic="",
                                     fault_cause="ILLEGAL")
        if e is None:  # a fetch fault or an illegal word: a trap carrier
            slot = IdEx(trap_carrier_control(meta.fault_cause),
                        0, 0, 0, 0, pc, 1)
            return (slot, meta._replace(pc=pc, iclass_name="SYSTEM"),
                    "SYSTEM", False)
        mnemonic, iclass, control, use_rs1, use_rs2, rs1, rs2, rd, imm = e

        if not squash:
            # one-cycle gap after a load producing a consumed register
            ex = self.id_ex
            if ex.valid:
                ectl = ex.control
                if ((ectl >> 4) & 7 == UNIT_LOAD and ectl & F_REG_WRITE):
                    lrd = ex.rd & 31
                    if lrd and ((use_rs1 and rs1 == lrd)
                                or (use_rs2 and rs2 == lrd)):
                        return _ID_EX_BUBBLE, None, None, True

        regs = self.arch.regs
        v1 = regs[rs1] if use_rs1 else 0
        v2 = regs[rs2] if use_rs2 else 0
        if ex_forward is not None:
            frd, value = ex_forward
            if use_rs1 and rs1 == frd:
                v1 = value
            if use_rs2 and rs2 == frd:
                v2 = value
        slot = IdEx(control, v1, v2, imm, rd, pc, 1)
        (dyn_id, _, _, _, _, fault_cause, trap_cause, next_pc, mem_write,
         output, halt, word_corrupted) = meta
        out = SlotMeta(dyn_id, pc, word, mnemonic, iclass, fault_cause,
                       trap_cause, next_pc, mem_write, output, halt,
                       word_corrupted)
        return slot, out, iclass, False

    def _fetch_slot(self):
        """Build the IF_ID slot for the word being fetched this cycle."""

        pc = self.fetch_pc & MASK32
        self.dyn_counter = dyn_id = self.dyn_counter + 1
        word, fault, e = _fetch(self.arch.mem, pc)
        if e is None:  # a fetch fault or an illegal word
            return (IfId(word, pc, 1),
                    SlotMeta(dyn_id, pc, word, fault_cause=fault), "SYSTEM")
        return IfId(word, pc, 1), SlotMeta(dyn_id, pc, word, e[0]), e[1]

    # -- glitch application ----------------------------------------------------

    def _apply_glitch(self, spec: GlitchSpec) -> None:
        """Glitch the edge that opened the current cycle, in place. It needs
        a timing model and the pipeline running at `spec.cycle` (at least
        0); `plan_effect` checks the offset. A refusal changes nothing."""

        if self.timing is None:
            raise ValueError("glitch injection needs a timing model")
        if spec.cycle < 0:
            raise ValueError(f"glitch cycle must be at least 0, "
                             f"got {spec.cycle}")
        if self.arch.halted or spec.cycle != self.cycle:
            raise ValueError(f"cannot glitch cycle {spec.cycle}: the pipeline "
                             f"is {'halted' if self.arch.halted else 'running'}"
                             f" at cycle {self.cycle}")
        caps = {}
        for latch, iclass in corruptible(self.captures).items():
            value, meta_name, prev, _ = _LATCH_ATTRS[latch]
            caps[latch] = (iclass, getattr(self, value), getattr(self, prev),
                           getattr(self, meta_name).pc)
        for latch, (target, events) in plan_effect(spec, caps,
                                                   self.timing).items():
            self.corruptions.extend(events)
            value, meta_name, _, prev_meta = _LATCH_ATTRS[latch]
            clean = getattr(self, value)
            if target == clean:
                # a glitch that changes no latch leaves the run glitch-free
                continue
            self.illegal_policy = spec.illegal_policy
            setattr(self, value, target)
            meta = getattr(self, meta_name)
            if events[0].ghost:
                # only a stale valid bit of 1 revives a slot, so the
                # previous slot carried a meta
                meta = getattr(self, prev_meta)
                self.mechanisms.append(MechanismEvent(
                    GHOST_INSTRUCTION, spec.cycle,
                    getattr(target, "pc", meta.pc), latch))
            if latch == "IF_ID" and target.valid \
                    and target.instr_word != clean.instr_word:
                word = target.instr_word
                meta = meta._replace(word_corrupted=True, raw=word)
                e = WORDS[word]
                if e is not None:
                    self.mechanisms.append(MechanismEvent(
                        MUTATED_INSTRUCTION, spec.cycle, target.pc,
                        f"0x{clean.instr_word:08X}->0x{word:08X} ({e[0]})"))
            setattr(self, meta_name, meta)

    # -- tracing -----------------------------------------------------------------

    def _trace_entry(self) -> CycleTrace:
        occ: dict[str, tuple | None] = {}
        for stage, slot, m in (("ID", self.if_id, self.if_id_meta),
                               ("EX", self.id_ex, self.id_ex_meta),
                               ("WB", self.ex_wb, self.ex_wb_meta)):
            occ[stage] = (getattr(slot, "pc", m.pc), m.mnemonic,
                          m.iclass_name, m.dyn_id) if slot.valid else None
        pc = self.fetch_pc & MASK32
        e = _fetch(self.arch.mem, pc)[2]
        occ["IF"] = None if self.fetch_stopped else \
            (pc, e[0], e[1], -1) if e else (pc, "", None, -1)
        return CycleTrace(self.cycle, occ, self.captures)


def _fetch(mem: dict, pc: int) -> tuple[int, str | None, tuple | None]:
    """What IF reads at pc: (word, fault cause, WORDS entry). A faulting
    fetch reads word 0, and it has no entry, as an illegal word has none."""

    if pc & 3:
        return 0, "MISALIGNED_FETCH", None
    word = mem.get(pc >> 2)
    if word is None:
        return 0, "FETCH_FAULT", None
    return word, None, WORDS[word]


def _slot_key(slot: tuple, meta: SlotMeta) -> tuple | None:
    if not slot.valid:
        return None
    return slot, (
        meta.pc, meta.trap_cause, meta.fault_cause, meta.halt, meta.next_pc,
        meta.word_corrupted, meta.mem_write, meta.output)


def run_pipeline(program: Program, *, timing: TimingModel | None = None,
                 glitches=(), max_cycles: int = machine.MAX_CYCLES,
                 strict: bool = False, record_trace: bool = False
                 ) -> PipelineRun:
    """Run from reset for at most `max_cycles` cycles, glitching each edge
    in place; a glitch it never reaches, or a repeat, raises ValueError."""

    p = Pipeline(program, timing=timing, strict=strict,
                 record_trace=record_trace)
    specs = sorted(glitches, key=lambda spec: spec.cycle)
    for spec, after in zip(specs, specs[1:]):
        if spec.cycle == after.cycle:
            raise ValueError(f"duplicate glitch for cycle {spec.cycle}")
    for spec in specs:
        p.run(min(spec.cycle, max_cycles))
        p._apply_glitch(spec)
    p.run(max_cycles)
    return p.result()
