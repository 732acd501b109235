"""Shared rendering/artifact helpers for the evaluation harnesses."""

from __future__ import annotations

import pathlib


def render_table(headers: list[str], rows: list[list[str]],
                 widths: list[int] | None = None) -> str:
    """Right-aligned fixed-width text table."""
    if widths is None:
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
    lines = ["  ".join(f"{h:>{w}}" for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(f"{c:>{w}}" for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_artifact(directory: str | pathlib.Path, name: str,
                   text: str, *, echo: bool = True) -> pathlib.Path:
    """Persist a regenerated table/figure and optionally echo it."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text.rstrip() + "\n")
    if echo:
        print(f"\n=== {name} ===")
        print(text)
    return path
