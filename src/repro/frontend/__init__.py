"""Frontend: disassembly wrapper and patch-site matchers (the paper's
"basic wrapper frontend" + the e9tool analogue)."""

from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import (
    MATCHERS,
    match_jumps,
    match_heap_writes,
    match_all,
)
from repro.frontend.tool import instrument_elf, InstrumentReport

__all__ = [
    "disassemble_text",
    "MATCHERS",
    "match_jumps",
    "match_heap_writes",
    "match_all",
    "instrument_elf",
    "InstrumentReport",
]
