"""The drift reference: a fixed work mix in its own process.

Host speed on small shared machines drifts by up to 1.8x over minutes.
The benchmark runs one slice of this mix between operations of the
program, never at the same time as one, and scales every timing by
how long the slices took against :data:`NOMINAL_S`.  The mix imports
nothing from the program and keeps no state between slices beyond its
fixed tables, so it cannot follow the program's own speed: a real
speed-up still shows.

There are two kinds of slice, because host drift moves interpreted
Python and vectorized numpy work by different amounts.  A ``python``
slice has three parts of about equal length: interpreter-bound
arithmetic and bytes work on a small working set, dependent loads
through a working set larger than the CPU caches, and short-lived object
allocation.  A ``numpy`` slice gathers, scans and shifts arrays of a few
megabytes, as the vectorized decoder does over a code section.

Each stdin line names a kind and runs one slice of it; the answer is
the kind that ran (``python`` when numpy is missing, as the program then
decodes in pure Python too) and its wall time in seconds.  Set-up has its own reference, :data:`STARTUP_SOURCE`.
"""

from __future__ import annotations

import gc
import random
import struct
import sys
import time

#: Wall time of one slice of each kind on the reference host; scaled
#: timings are seconds on a host where a slice takes this long.
NOMINAL_S = {"python": 0.015, "numpy": 0.020}

#: Set-up is process start and imports, which host drift moves less
#: than it moves the slices.  Set-up is scaled instead by a fresh
#: interpreter importing numpy and the standard modules the program
#: imports, timed from spawn to exit (``python3 -c STARTUP_SOURCE``).
STARTUP_SOURCE = ("import asyncio, json, argparse, dataclasses, hashlib, "
                  "http.client, struct, bisect, zlib\n"
                  "try:\n    import numpy\nexcept ImportError:\n    pass")
STARTUP_NOMINAL_S = 0.23

_PACKED = struct.Struct("<IHBB")
_CHASE = 1 << 18


def compute() -> int:
    """Dict, list, int and bytes work on a cache-resident working set."""
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    buf = bytearray(range(256)) * 8
    acc = 0
    for i in range(240):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        rows.append((key, i & 7))
        a, b, c, d = _PACKED.unpack_from(buf, (i * 8) & 0x7F0)
        acc += (a ^ b) + c * d + len(buf[i & 0xFF:(i & 0xFF) + 16])
        for j in range(8):
            acc = (acc + j * key) & 0xFFFFFFFF
    rows.sort()
    return acc + sum(v for _, v in rows) + len(table)


class Memory:
    """Dependent loads through about 20 MB of list, int and dict."""

    def __init__(self) -> None:
        rng = random.Random(5)
        self.perm = list(range(_CHASE))
        rng.shuffle(self.perm)
        self.table = {i * 7919: i for i in range(_CHASE // 2)}
        self.keys = [k * 7919 for k in self.perm[:_CHASE // 2]]

    def walk(self, start: int) -> int:
        perm, table = self.perm, self.table
        i = start
        acc = 0
        for _ in range(6000):
            i = perm[i]
            acc += i
        for k in self.keys[start & 0xFFFF:(start & 0xFFFF) + 6000]:
            acc += table.get(k, 0)
        return acc


def allocate() -> int:
    """Short-lived tuples, lists and dicts, then a keyed sort."""
    objs = [(i, [i, i + 1], {"a": i}) for i in range(3000)]
    objs.sort(key=lambda t: -t[0])
    return len(objs)


class Arrays:
    """Table gathers, a prefix sum, a random gather and shifted ORs over
    2M-element arrays."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(3)
        n = 1 << 21
        self.np = np
        self.buf = rng.integers(0, 256, n, dtype=np.uint8)
        self.table = rng.integers(0, 1 << 16, 256, dtype=np.uint16)
        self.perm = rng.permutation(n)[:n // 4]

    def run(self) -> int:
        np = self.np
        facts = self.table[self.buf]
        total = np.cumsum(facts, dtype=np.uint32)
        picked = self.buf[self.perm]
        mixed = (facts >> 3) | (np.roll(facts, 1) << 2)
        return int(total[-1]) + int(picked[0]) + int(mixed[5])


def python_slice(memory: Memory, n: int) -> None:
    for _ in range(12):
        compute()
    for k in range(2):
        memory.walk(n * 2 + k)
    for _ in range(5):
        allocate()


def main() -> None:
    memory = Memory()
    try:
        import numpy
    except ImportError:
        arrays = None
    else:
        arrays = Arrays(numpy)
    gc.disable()
    for n, line in enumerate(sys.stdin):
        kind = line.strip()
        if arrays is None:
            kind = "python"
        t0 = time.perf_counter()
        if kind == "numpy":
            arrays.run()
        else:
            python_slice(memory, n)
        sys.stdout.write(f"{kind} {time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
