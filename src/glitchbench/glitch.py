"""Glitch parameters and the capture-corruption planner.

A glitch is a single premature clock edge: in the victim cycle the capture
edge arrives `offset` nanoseconds after the launch edge instead of a full
period later. For every latch that actually captures at that edge, bits whose
arrival time exceeds offset - t_setup miss the edge; what the latch ends up
holding for those bits depends on the corruption policy.

Latches that hold (stall) or that capture a reset bubble have no in-flight
data and come through clean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .latches import LATCHES, field_names
from .timing import TimingModel


class CorruptionPolicy(enum.Enum):
    # late bits keep the latch's previous contents
    STALE_BITS = "STALE_BITS"
    # any late bit makes the whole latch keep its previous contents
    STALE_REGISTER = "STALE_REGISTER"
    # late bits capture as zero
    ZERO_LATE_BITS = "ZERO_LATE_BITS"


class IllegalPolicy(enum.Enum):
    """What the decoder does with a corrupted word that no longer decodes."""

    NOP_REPLACE = "NOP_REPLACE"
    TRAP = "TRAP"


@dataclass(frozen=True)
class GlitchSpec:
    cycle: int
    offset_ns: float
    policy: CorruptionPolicy = CorruptionPolicy.STALE_BITS
    illegal_policy: IllegalPolicy = IllegalPolicy.NOP_REPLACE


@dataclass(frozen=True)
class LatchCapture:
    """What one latch is doing at the glitched edge.

    fresh=False means the latch held its old value (no capture, immune).
    iclass=None means the incoming data is a reset bubble with no driver
    (stall insertion, post-halt drain), which is also immune. A squashed
    instruction still drives the latch inputs, so flush bubbles keep the
    class of the squashed instruction and stay corruptible.
    """

    latch: str
    fresh: bool
    iclass: str | None
    incoming: tuple     # latch value the capture would latch glitch-free
    previous: tuple     # latch value latched the cycle before
    pc: int | None      # victim instruction, when the slot had one


@dataclass(frozen=True, slots=True)
class CorruptionEvent:
    """One latch field that captured at least one late bit."""

    cycle: int
    latch: str
    field: str
    iclass: str
    late_bits: tuple
    clean: int
    corrupted: int
    ghost: bool = False            # valid corrupted 0 -> 1, stale slot revived
    bubble_injected: bool = False  # valid corrupted 1 -> 0, slot killed
    pc: int | None = None          # victim instruction, when the slot had one

    @property
    def changed(self) -> bool:
        return self.clean != self.corrupted


def plan_effect(spec: GlitchSpec, captures: dict, timing: TimingModel
                ) -> dict[str, tuple[CorruptionEvent, ...]]:
    """Work out the corrupted contents of every latch at the glitched edge.

    `captures` maps latch name to LatchCapture; the result maps each
    corrupted latch to its events, in field order. Corruption is recorded
    per field whenever any bit arrives late, even if the substituted value
    happens to equal the clean one; downstream divergence is a separate
    question from timing violation.
    """

    timing.check_offset(spec.offset_ns)
    effects: dict[str, tuple[CorruptionEvent, ...]] = {}
    for latch in LATCHES:
        cap = captures.get(latch)
        if cap is None or not cap.fresh or cap.iclass is None:
            continue
        late = timing.late_fields(cap.iclass, latch, spec.offset_ns)
        if not late:
            continue

        fields = {}  # field -> (late bits, corrupted value)
        inc, prev = cap.incoming, cap.previous
        if spec.policy is CorruptionPolicy.STALE_REGISTER:
            # one late bit anywhere reverts the entire register
            late_of = {fname: bits for fname, bits, _mask in late}
            for fname in field_names(latch):
                fields[fname] = late_of.get(fname, ()), getattr(prev, fname)
        else:
            for fname, bits, mask in late:
                stale = getattr(prev, fname) \
                    if spec.policy is CorruptionPolicy.STALE_BITS else 0
                fields[fname] = \
                    bits, (getattr(inc, fname) & ~mask) | (stale & mask)

        valid_in = inc.valid & 1
        valid_out = fields["valid"][1] & 1 if "valid" in fields else valid_in
        ghost = valid_in == 0 and valid_out == 1
        killed = valid_in == 1 and valid_out == 0
        effects[latch] = tuple(
            CorruptionEvent(spec.cycle, latch, fname, cap.iclass, bits,
                            getattr(inc, fname), bad, ghost, killed, cap.pc)
            for fname, (bits, bad) in fields.items())
    return effects
