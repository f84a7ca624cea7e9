"""The file boundary: checked input, byte-stable output.

Every value read from a config or certificate passes `numeric`, `number`
or `integer`, and every array a container keeps passes `read_only`.
Every CSV is a float table written by `write_csv`.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed configs: bad dimensions, bad values, bad files."""


def read_json_object(path, what, keys):
    """The JSON object in `path`, which must have every key in `keys`, else
    ConfigError."""
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


def read_only(array):
    """`array` as a float array that nothing can write to, copied only if needed.

    A float64 ndarray is returned as it is when it and every array in its
    `.base` chain are read-only, so no view can change its values; anything
    else (a writable array, a read-only view of a writable one, another
    dtype, a list) is copied once and the copy made read-only.
    """
    a = array
    while type(a) is np.ndarray and not a.flags.writeable:
        if a.base is None and array.dtype == np.float64:
            return array
        a = a.base
    copy = np.array(array, dtype=float)
    copy.flags.writeable = False
    return copy


def numeric(value, name):
    """`value` as a `read_only` float array: ints and floats only (nested
    lists of equal length or an array), every entry finite."""
    if not _numbers_only(value):
        raise ConfigError(f"{name} must hold only numbers, got {value!r:.60}")
    try:
        array = read_only(value)
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
    """One CSV cell: a float at 12 significant digits, empty for NaN."""
    v = float(value)
    return "" if math.isnan(v) else f"{v:.12g}"


def atomic_write_text(path, text):
    """Write text to path via temp-file-plus-rename in the same directory.

    Returns the sha256 of the bytes written, which are the text encoded
    once in UTF-8, line ends untranslated.  ConfigError if the file cannot
    be written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            data = str.encode(text, "utf-8")  # TypeError unless text is a str
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return hashlib.sha256(data).hexdigest()


def write_csv(path, header, table):
    """Write a 2-D float table under `header`, each cell `fmt`-ed (so a NaN
    cell is empty and an integer-valued one prints as the integer); returns
    the sha256 of the bytes written."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in np.asarray(table, dtype=float).tolist()]
    return atomic_write_text(path, "\n".join(lines) + "\n")


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
