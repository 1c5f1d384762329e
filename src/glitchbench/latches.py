"""Inter-stage latch bit layouts and stage naming.

Three latches are corruption targets. Each is listed with its fields in
capture order; widths are bits. The consumer stage is the stage that reads
the latch during a cycle, so a glitch in cycle n attacks the captures that
produced the contents stage ID/EX/WB are consuming in cycle n.

A latch value is an immutable namedtuple of its fields (`LATCH_TYPE`), so
a pipeline rebinds a latch and never changes one in place, and forks share
latch values.
"""

from __future__ import annotations

from collections import namedtuple

LATCH_FIELDS: dict[str, tuple[tuple[str, int], ...]] = {
    "IF_ID": (("instr_word", 32), ("pc", 32), ("valid", 1)),
    "ID_EX": (("control", 16), ("rs1_val", 32), ("rs2_val", 32),
              ("imm", 32), ("rd", 5), ("pc", 32), ("valid", 1)),
    "EX_WB": (("result", 32), ("rd", 5), ("is_load", 1),
              ("mem_data", 32), ("valid", 1)),
}

LATCHES = tuple(LATCH_FIELDS)

# latch -> stage consuming its contents
CONSUMER_STAGE = {"IF_ID": "ID", "ID_EX": "EX", "EX_WB": "WB"}

FIELD_WIDTH = {(latch, name): width
               for latch, fields in LATCH_FIELDS.items()
               for name, width in fields}

# latch -> namedtuple type of its value, fields in capture order
LATCH_TYPE = {latch: namedtuple(latch, [name for name, _ in fields])
              for latch, fields in LATCH_FIELDS.items()}

_BUBBLE = {latch: t._make(0 for _ in t._fields)
           for latch, t in LATCH_TYPE.items()}


def bubble(latch: str):
    """All-zero latch value, shared; valid=0 means no instruction."""

    return _BUBBLE[latch]
