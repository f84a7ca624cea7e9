"""The file boundary: checked input, byte-stable output.

The package reads only JSON: config and certificate files are read by
`read_json_object`, and each value in them passes `numeric`, `number` or `integer`: finite JSON numbers
only, never a string, boolean, null or truncated fraction, else a
`ConfigError` naming the field.  Writers print floats with 12 significant
digits ('%.12g', '.' decimal separator) and '\\n' line ends, and write to a
temp name renamed into place so readers never observe a partial file.
"""
from __future__ import annotations

import hashlib
import json
import numbers
import os
import tempfile

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed configs: bad dimensions, bad values, bad files."""


def read_json_object(path, what, keys):
    """The JSON object in `path`, which must have every key in `keys`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} root must be an object")
    for key in keys:
        if key not in doc:
            raise ConfigError(f"{what} is missing '{key}'")
    return doc


def _numbers_only(value):
    if isinstance(value, (list, tuple)):
        return all(map(_numbers_only, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def numeric(value, name):
    """Float array of `value`: ints and floats only (nested lists of equal
    length or an array), every entry finite."""
    if not _numbers_only(value):
        raise ConfigError(f"{name} must hold only numbers, got {value!r:.60}")
    try:
        array = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} is not a numeric array ({exc})") from None
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{name} has a non-finite entry")
    return array


def number(value, name):
    """One finite number as a float, checked as by `numeric`."""
    array = numeric(value, name)
    if array.ndim:
        raise ConfigError(f"{name} must be a number, got shape {array.shape}")
    return float(array)


def integer(value, name):
    """int(value), rejecting booleans and numbers that are not whole."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r:.60}")
    return int(value)


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
