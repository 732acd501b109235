"""``e9dump``: disassembly and patch-site inspection CLI.

A small companion tool built on the decoder/formatter: disassemble a
binary's code (linear or symbol-guided), annotate the instructions a
matcher would select, and summarize what a rewrite would do — without
writing anything.

Usage::

    e9dump /bin/ls                          # disassemble .text
    e9dump --matcher jumps /bin/ls          # mark the A1 patch sites
    e9dump --summary --matcher heap-writes /bin/ls
    e9dump --function main ./a.out          # one function (symbols)
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.elf.reader import ElfFile
from repro.frontend.matchers import Matcher, resolve_matcher, select_sites
from repro.frontend.tool import prepare_binary


def dump_lines(data: bytes, *, matcher: Matcher | None = None,
               frontend: str = "linear",
               function: str | None = None,
               limit: int | None = None) -> list[str]:
    """Produce annotated disassembly lines."""
    if function is not None:
        from repro.elf.symbols import function_symbols
        from repro.x86.decoder import decode_buffer

        elf = ElfFile(data)
        syms = [s for s in function_symbols(elf) if s.name == function]
        if not syms:
            raise SystemExit(f"no function symbol {function!r}")
        sym = syms[0]
        offset = elf.vaddr_to_offset(sym.value)
        instructions = decode_buffer(
            elf.data[offset : offset + sym.size], address=sym.value)
    else:
        instructions = prepare_binary(data, frontend=frontend).instructions

    lines = []
    for insn in instructions[: limit if limit else None]:
        marker = "  *" if matcher is not None and matcher(insn) else "   "
        lines.append(f"{marker} {insn}")
    return lines


def summarize(data: bytes, matcher: Matcher,
              frontend: str = "linear") -> list[str]:
    """Site statistics: counts by mnemonic and by instruction length."""
    instructions = prepare_binary(data, frontend=frontend).instructions
    sites = select_sites(instructions, matcher)
    by_mnemonic = Counter(i.mnemonic for i in sites)
    by_length = Counter(i.length for i in sites)
    lines = [
        f"instructions: {len(instructions)}",
        f"matched sites: {len(sites)}",
        "by mnemonic: "
        + ", ".join(f"{m}={n}" for m, n in by_mnemonic.most_common(10)),
        "by length:   "
        + ", ".join(f"{ln}B={n}" for ln, n in sorted(by_length.items())),
    ]
    short = sum(n for ln, n in by_length.items() if ln < 5)
    if sites:
        lines.append(
            f"punning-constrained (<5 bytes): {short} "
            f"({100.0 * short / len(sites):.1f}% — these need B2/T1/T2/T3)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="e9dump",
        description="Disassemble a binary and inspect patch sites "
        "(E9Patch reproduction companion).",
    )
    parser.add_argument("input", help="ELF binary")
    parser.add_argument("--matcher", "-M", help="mark sites this matcher selects")
    parser.add_argument("--frontend", default="linear",
                        choices=("linear", "symbols"))
    parser.add_argument("--function", "-F",
                        help="disassemble a single function (by symbol)")
    parser.add_argument("--summary", action="store_true",
                        help="print site statistics instead of a listing")
    parser.add_argument("--limit", "-n", type=int,
                        help="maximum instructions to print")
    args = parser.parse_args(argv)

    with open(args.input, "rb") as f:
        data = f.read()
    matcher = resolve_matcher(args.matcher)

    if args.summary:
        if matcher is None:
            parser.error("--summary requires --matcher")
        for line in summarize(data, matcher, args.frontend):
            print(line)
        return 0

    for line in dump_lines(data, matcher=matcher, frontend=args.frontend,
                           function=args.function, limit=args.limit):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
