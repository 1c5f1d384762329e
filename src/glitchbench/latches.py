"""Inter-stage latch bit layouts and stage naming.

Three latches are corruption targets. Each is listed with its fields in
capture order; widths are bits. The consumer stage is the stage that reads
the latch during a cycle, so a glitch in cycle n attacks the captures that
produced the contents stage ID/EX/WB are consuming in cycle n.
"""

from __future__ import annotations

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


def field_names(latch: str) -> tuple[str, ...]:
    return tuple(name for name, _ in LATCH_FIELDS[latch])


def bubble(latch: str) -> dict[str, int]:
    """All-zero latch value; valid=0 means no instruction."""

    return {name: 0 for name, _ in LATCH_FIELDS[latch]}
