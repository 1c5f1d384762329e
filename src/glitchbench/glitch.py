"""Glitch parameters and the capture-corruption planner.

A glitch is a single premature clock edge: in the victim cycle the capture
edge arrives `offset` nanoseconds after the launch edge instead of a full
period later. For every latch that actually captures at that edge, bits whose
arrival time exceeds offset - t_setup miss the edge; what the latch ends up
holding for those bits depends on the corruption policy. A latch that
holds (stall) or captures a reset bubble comes through clean (`corruptible`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def corruptible(profile: dict) -> dict[str, str]:
    """latch -> driving class of every capture a glitch can reach.

    `profile` maps latch -> (fresh, iclass). A capture is corruptible iff it
    is fresh (a held latch captures nothing) and driven (a reset bubble from
    a stall or a post-halt drain has iclass None and no in-flight data). A
    flush bubble keeps the class of the squashed instruction, which still
    drives the latch inputs, so it stays corruptible.
    """

    return {latch: iclass for latch, (fresh, iclass) in profile.items()
            if fresh and iclass is not None}


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
                ) -> dict[str, tuple[tuple, tuple[CorruptionEvent, ...]]]:
    """What each corruptible latch captures at the glitched edge.

    `captures` maps each corruptible latch, in latch order, to `(iclass,
    incoming, previous, pc)`: its driving class, its glitch-free and
    previous values, and the victim pc. The result maps each latch with
    late bits to `(captured value, events)`, one event per field in field
    order. A field is recorded whenever any bit arrives late, even if the
    substituted value equals the clean one.
    """

    timing.check_offset(spec.offset_ns)
    effects = {}
    for latch, (iclass, inc, prev, pc) in captures.items():
        late = timing.late_fields(iclass, latch, spec.offset_ns)
        if not late:
            continue

        late_of = {fname: bits for fname, bits, _mask in late}
        if spec.policy is CorruptionPolicy.STALE_REGISTER:
            # one late bit anywhere reverts the entire register
            captured, recorded = prev, inc._fields
        else:
            merged = {}
            for fname, _bits, mask in late:
                stale = getattr(prev, fname) \
                    if spec.policy is CorruptionPolicy.STALE_BITS else 0
                merged[fname] = (getattr(inc, fname) & ~mask) | (stale & mask)
            captured, recorded = inc._replace(**merged), late_of

        valid_in, valid_out = inc.valid & 1, captured.valid & 1
        ghost = valid_in == 0 and valid_out == 1
        killed = valid_in == 1 and valid_out == 0
        effects[latch] = captured, tuple(
            CorruptionEvent(spec.cycle, latch, fname, iclass,
                            late_of.get(fname, ()), getattr(inc, fname),
                            getattr(captured, fname), ghost, killed, pc)
            for fname in recorded)
    return effects
