"""E9Patch reproduction: static binary rewriting without control flow recovery.

Public API (see README.md for a quickstart)::

    from repro import (
        ElfFile, RewriteContext, RewriteOptions, PatchRequest,
        disassemble_text, instrument_elf, run_elf,
    )

The subpackages:

* :mod:`repro.x86` -- instruction decoding/encoding/formatting
* :mod:`repro.elf` -- ELF64 reading, in-place rewriting, building
* :mod:`repro.core` -- pun math, tactics, strategy, grouping, the pipeline
* :mod:`repro.frontend` -- disassembly, matchers, CLI, JSON-RPC protocol
* :mod:`repro.vm` -- the x86-64 interpreter testbed
* :mod:`repro.lowfat` -- low-fat pointer heap hardening
* :mod:`repro.synth` -- synthetic workload generation
* :mod:`repro.eval` -- table/figure regeneration harnesses
"""

__version__ = "1.0.0"

from repro.apps.coverage import CoverageInstrumenter, CoverageReport
from repro.apps.fuzzer import Fuzzer, build_fuzz_target
from repro.apps.tracer import Trace, TracedBinary, Tracer
from repro.core.pipeline import RewriteContext, RewriteOptions, RewriteResult
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.tactics import Tactic
from repro.core.templates import TrampolineTemplate, load_template
from repro.core.trampoline import (
    CallFunction,
    Counter,
    Empty,
    Instrumentation,
)
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.errors import ReproError
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.match_expr import compile_matcher
from repro.frontend.partial import patch_addresses
from repro.frontend.protocol import E9PatchSession
from repro.frontend.tool import instrument_elf, instrument_elf_auto
from repro.vm.machine import Machine, run_elf
from repro.x86.decoder import decode, decode_buffer

__all__ = [
    "__version__",
    "ReproError",
    # apps
    "CoverageInstrumenter",
    "CoverageReport",
    "Fuzzer",
    "build_fuzz_target",
    "Tracer",
    "TracedBinary",
    "Trace",
    # core
    "RewriteContext",
    "RewriteOptions",
    "RewriteResult",
    "PatchRequest",
    "TacticToggles",
    "Tactic",
    "Instrumentation",
    "Empty",
    "Counter",
    "CallFunction",
    "TrampolineTemplate",
    "load_template",
    # elf
    "ElfFile",
    "TinyProgram",
    # frontend
    "disassemble_text",
    "compile_matcher",
    "instrument_elf",
    "instrument_elf_auto",
    "patch_addresses",
    "E9PatchSession",
    # vm
    "Machine",
    "run_elf",
    # x86
    "decode",
    "decode_buffer",
]
