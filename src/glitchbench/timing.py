"""Per-class, per-latch timing annotations and the clock-glitch arithmetic.

The model is deliberately simple: every (instruction class, latch) pair has a
critical-path delay t_crit measured from the launching clock edge, and each
field of the latch settles at t_crit times its field factor in (0, 1]. A
glitch that shortens the active cycle to `offset` ns corrupts a capture when
the data needed more time than the edge allowed, i.e. when offset < t_crit *
f_max + t_setup, f_max being the latch's largest field factor. Bits settle
no later than their field, so partial corruption is resolved per bit via a
deterministic pseudo-random arrival spread.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .isa import IClass
from .latches import FIELD_WIDTH, LATCH_FIELDS, LATCHES

CLASS_NAMES = tuple(c.value for c in IClass)
REFERENCE_TIMING = Path(__file__).parent / "fixtures" / "timing_ref.json"


class TimingError(ValueError):
    """Raised for malformed or inconsistent timing descriptions."""


@dataclass(frozen=True)
class TimingModel:
    clock_period_ns: float
    setup_ns: float
    min_glitch_ns: float
    crit_ns: dict          # (iclass name, latch) -> float
    field_factors: dict    # latch -> {field -> float in (0, 1]}
    bit_spread_seed: int
    _arrival_cache: dict = field(default_factory=dict, init=False,
                                 compare=False, repr=False)
    _late_tables: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    # -- scalar queries ----------------------------------------------------

    def crit(self, iclass: str, latch: str) -> float:
        return self.crit_ns[iclass, latch]

    def slack(self, iclass: str, latch: str) -> float:
        return self.clock_period_ns - self.setup_ns - self.crit(iclass, latch)

    def check_offset(self, offset: float) -> None:
        if not self.min_glitch_ns <= offset < self.clock_period_ns:
            raise TimingError(
                f"offset {offset} outside [{self.min_glitch_ns}, "
                f"{self.clock_period_ns})")

    def threshold(self, iclass: str, latch: str) -> float:
        """Largest bit arrival plus setup: offsets below this corrupt."""

        return (self.crit(iclass, latch)
                * max(self.field_factors[latch].values()) + self.setup_ns)

    # -- per-bit arrivals ---------------------------------------------------

    def bit_arrivals(self, iclass: str, latch: str, fname: str) -> tuple[float, ...]:
        """Arrival time of every bit of one latch field, LSB first.

        One designated bit lands exactly at the field arrival; the rest are
        scattered into [0.3, 1.0) of it by a seeded hash, so the profile is
        reproducible across runs and processes.
        """

        key = (iclass, latch, fname)
        hit = self._arrival_cache.get(key)
        if hit is not None:
            return hit
        width = FIELD_WIDTH[latch, fname]
        peak = self.crit(iclass, latch) * self.field_factors[latch][fname]
        chosen = self._hash(latch, fname, "pick") % width
        arrivals = []
        for bit in range(width):
            if bit == chosen:
                arrivals.append(peak)
            else:
                u = self._hash(latch, fname, str(bit)) / 2**64
                arrivals.append(peak * (0.3 + 0.7 * u))
        out = tuple(arrivals)
        self._arrival_cache[key] = out
        return out

    def late_bits(self, iclass: str, latch: str, fname: str,
                  offset: float) -> tuple[int, ...]:
        """Bits of one field whose data misses the early capture edge.

        Compared as arrival + setup > offset, the same expression
        threshold() evaluates, so the two agree bit-for-bit in floating
        point and an offset exactly on a threshold stays safe."""

        return tuple(b for b, t in
                     enumerate(self.bit_arrivals(iclass, latch, fname))
                     if t + self.setup_ns > offset)

    def late_fields(self, iclass: str, latch: str, offset: float) -> tuple:
        """(field, late bits, mask) for every field of one capture with late
        bits at `offset`, in field order: late_bits of each field, from a
        table built on first use of the (iclass, latch) pair.

        The late set changes only at the keys arrival + setup, so between two
        neighbouring keys it is constant. The table holds late_bits
        evaluated once per interval, and a lookup is one bisect."""

        table = self._late_tables.get((iclass, latch))
        if table is None:
            table = self._late_tables[iclass, latch] = \
                self._late_table(iclass, latch)
        keys, rows = table
        return rows[bisect_right(keys, offset)]

    def _late_table(self, iclass: str, latch: str) -> tuple[list, tuple]:
        names = [name for name, _width in LATCH_FIELDS[latch]]
        # the float expression late_bits compares, so lookups are exact
        keys = sorted({t + self.setup_ns for name in names
                       for t in self.bit_arrivals(iclass, latch, name)})
        rows = []
        # row i covers [keys[i-1], keys[i]); row 0 everything below keys[0]
        for edge in (-math.inf, *keys):
            row = []
            for name in names:
                bits = self.late_bits(iclass, latch, name, edge)
                if bits:
                    row.append((name, bits, sum(1 << b for b in bits)))
            rows.append(tuple(row))
        return keys, tuple(rows)

    def _hash(self, *parts: str) -> int:
        text = "|".join((str(self.bit_spread_seed),) + parts)
        return int.from_bytes(
            hashlib.sha256(text.encode()).digest()[:8], "big")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise TimingError(msg)


def _number(value, what: str) -> float:
    # compared, not converted: float() of a huge JSON integer overflows
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{what} must be a finite number")
    return float(value)


def timing_from_dict(doc: dict) -> TimingModel:
    """A validated model from a document shaped like REFERENCE_TIMING, the
    one statement of the format."""

    _require(isinstance(doc, dict), "timing document must be an object")
    for key in ("clock_period_ns", "setup_ns", "min_glitch_ns",
                "crit_ns", "field_factors", "bit_spread_seed"):
        _require(key in doc, f"missing key {key!r}")
    period = _number(doc["clock_period_ns"], "clock_period_ns")
    setup = _number(doc["setup_ns"], "setup_ns")
    o_min = _number(doc["min_glitch_ns"], "min_glitch_ns")
    seed = doc["bit_spread_seed"]
    _require(period > 0, "clock_period_ns must be positive")
    _require(0 < setup < period, "setup_ns must lie inside the clock period")
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and seed >= 0,
             "bit_spread_seed must be a non-negative integer")

    raw_crit = doc["crit_ns"]
    _require(isinstance(raw_crit, dict), "crit_ns must be an object")
    _require(set(raw_crit) == set(CLASS_NAMES),
             f"crit_ns must cover exactly {sorted(CLASS_NAMES)}")
    crit: dict[tuple[str, str], float] = {}
    for iclass, row in raw_crit.items():
        _require(isinstance(row, dict) and set(row) == set(LATCHES),
                 f"crit_ns[{iclass!r}] must cover exactly {list(LATCHES)}")
        for latch, value in row.items():
            value = _number(value, f"crit_ns[{iclass!r}][{latch!r}]")
            _require(0 < value < period - setup,
                     f"crit_ns[{iclass!r}][{latch!r}]={value} must be in "
                     f"(0, {period - setup})")
            crit[iclass, latch] = value

    raw_ff = doc["field_factors"]
    _require(isinstance(raw_ff, dict) and set(raw_ff) == set(LATCHES),
             f"field_factors must cover exactly {list(LATCHES)}")
    factors: dict[str, dict[str, float]] = {}
    for latch, row in raw_ff.items():
        names = {name for name, _ in LATCH_FIELDS[latch]}
        _require(isinstance(row, dict) and set(row) == names,
                 f"field_factors[{latch!r}] must cover exactly {sorted(names)}")
        factors[latch] = {}
        for fname, fac in row.items():
            fac = _number(fac, f"field_factors[{latch!r}][{fname!r}]")
            _require(0 < fac <= 1.0,
                     f"field_factors[{latch!r}][{fname!r}]={fac} "
                     "must be in (0, 1]")
            factors[latch][fname] = fac

    _require(o_min > 0, "min_glitch_ns must be positive")
    floor = min(crit.values()) + setup
    _require(o_min < floor,
             f"min_glitch_ns={o_min} must be below the weakest capture "
             f"threshold {floor}")
    return TimingModel(period, setup, o_min, crit, factors, seed)


def load_timing(path) -> TimingModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise TimingError(f"cannot read timing file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TimingError(f"timing file is not valid JSON: {exc}") from exc
    return timing_from_dict(doc)


def reference_timing() -> TimingModel:
    """A fresh copy of the synthetic annotation set in REFERENCE_TIMING.

    Numbers are hand-picked to exercise the interesting structure: loads are
    the slowest fetch-side class, divides dominate the execute latch, writeback
    paths are short, and every latch has a field whose factor is exactly 1.0
    so the per-class threshold equals t_crit + t_setup.
    """

    return load_timing(REFERENCE_TIMING)
