#!/usr/bin/env python3
"""Rewrite a real system binary and run it natively.

The paper's robustness claim in miniature: take a compiler-produced,
dynamically-linked, PIE binary straight off the disk (default:
``/bin/ls``), instrument every direct jump with a trampoline — with no
control-flow recovery, no symbols, no relocation of any instruction —
and the result still behaves identically.

Run:  python3 examples/rewrite_system_binary.py [path-to-binary]
"""

import os
import stat
import subprocess
import sys
import tempfile

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf


def main() -> None:
    target = sys.argv[1] if len(sys.argv) > 1 else "/bin/ls"
    if not os.path.exists(target):
        print(f"{target} not found")
        return
    with open(target, "rb") as f:
        data = f.read()

    print(f"input: {target} ({len(data)} bytes)")
    report = instrument_elf(data, "jumps",
                            options=RewriteOptions(mode="loader"))
    print(f"rewrite: {report.summary()}")
    if report.result.grouping is not None:
        g = report.result.grouping
        print(f"page grouping: {len(g.blocks)} virtual blocks -> "
              f"{len(g.groups)} physical blocks "
              f"({g.mapping_count} mappings, "
              f"{100 * g.savings_ratio:.0f}% physical memory saved)")

    with tempfile.NamedTemporaryFile(delete=False, suffix=".patched") as f:
        f.write(report.result.data)
        patched_path = f.name
    os.chmod(patched_path, os.stat(patched_path).st_mode | stat.S_IXUSR)

    args = ["/etc/hostname"] if target == "/bin/ls" else ["--version"]
    ref = subprocess.run([target] + args, capture_output=True)
    out = subprocess.run([patched_path] + args, capture_output=True)
    same = (ref.returncode, ref.stdout) == (out.returncode, out.stdout)
    print(f"\nnative run of patched binary: exit={out.returncode}")
    print(f"output identical to original: {same}")
    print(f"patched binary left at: {patched_path}")


if __name__ == "__main__":
    main()
