"""Deterministic file output: CSV, checksums, atomic writes, tiny SVG charts.

Every writer here is byte-stable: floats are printed with 12 significant
digits ('%.12g', '.' decimal separator), line ends are '\\n', and files are
written to a temp name in the target directory and renamed into place so
readers never observe a partial file.
"""
from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np


def fmt(value):
    """Format one CSV cell: ints verbatim, floats at 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return ""
    return f"{v:.12g}"


def atomic_write_text(path, text):
    """Write text to path via temp-file-plus-rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a CSV of mixed int/float/None cells with fixed formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv_columns(path):
    """Read a CSV written by write_csv back into (header, list of rows).

    Cells come back as floats, with empty cells as None.  Raises ValueError
    on ragged rows or non-numeric data cells.
    """
    with open(path, encoding="utf-8") as fh:
        raw = [line.rstrip("\n") for line in fh if line.strip() != ""]
    if not raw:
        raise ValueError(f"{path} is empty")
    header = raw[0].split(",")
    rows = []
    for lineno, line in enumerate(raw[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        parsed = []
        for cell in cells:
            if cell == "":
                parsed.append(None)
            else:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric cell {cell!r}"
                    ) from None
        rows.append(parsed)
    return header, rows


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def svg_line_chart(series, title):
    """Render named series as a minimal static 640x360 SVG line chart.

    `series` maps a label to (xs, ys).  No external assets, no scripting;
    meant as a quick look at CSV contents, not as a plotting library.
    """
    width, height = 640, 360
    palette = ("#1f6fb2", "#c23b22", "#2e8540", "#8251a1", "#b58900", "#4a4a4a")
    margin = 46.0
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series.values()])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series.values()])
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
        f'<text x="{margin}" y="{height - 8}" font-family="sans-serif" '
        f'font-size="11">{fmt(x_lo)} .. {fmt(x_hi)}</text>',
        f'<text x="{width - margin}" y="{height - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(y_lo)} .. {fmt(y_hi)}</text>',
    ]
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin + 6}" y="{margin + 16 + 14 * idx}" fill="{color}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
