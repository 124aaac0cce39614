"""Deterministic JSON emission: sorted keys, floats at 17 significant digits,
line-delimited records.

``format17_lines`` formats a float64 array as ``"%.17g"`` lines in one numpy
pass, byte for byte as ``%`` would (the Riesz cloud's theta column).  Its
fast path covers 1e-4 <= x < 8, where ``%g`` uses fixed notation with a
decimal exponent E in [-4, 0], and needs no binary-to-decimal conversion
routine.  The 17 significant digits D = round-half-even(x 10^(16-E)) come
from one exact product: 10^k is an exact double for k <= 22, so x 10^k is
the rounded product p plus its exact error e (Dekker's two-product), and
p >= 2^53 is an even integer, so D = p + rint(e) rounds ties to even.  The
digits are written in 4-digit groups from a table, and a byte mask per
(E, digits kept) drops the '0.' prefix, the point and the trailing zeros
that ``%g`` strips.  Every other value (zero, negatives, subnormals, values
below 1e-4, which ``%g`` writes in exponent form, values of 8 and above,
non-finite ones) is formatted by ``"%.17g" % x``, one row at a time.
"""

from __future__ import annotations

import functools
import json
import math
from types import SimpleNamespace
from typing import Any

import numpy as np


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return format(x, ".17g")


def dumps17(obj: Any) -> str:
    """JSON text with every float at 17 significant digits and sorted keys."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{dumps17(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps17(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


_FAST_LO, _FAST_HI = 1e-4, 8.0
_E_MIN = -4
_D_LO, _D_HI = np.int64(10**16), np.int64(10**17)
_POW10 = 10.0 ** np.arange(23, dtype=np.float64)
_SPLIT = np.float64(134217729.0)  # 2^27 + 1, Veltkamp's splitter
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(rows) -> np.ndarray:
    """Rows of 4 byte values as native uint32 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()


# A row is 7 uint32 words, 28 bytes: "0.00" | "0" d0 "." NUL | d1-d4 | d5-d8 |
# d9-d12 | d13-d16 | "\n" NUL NUL NUL.  NUL bytes never reach the text.
_ZERO, _DOT, _NL = 48, 46, 10
_DIGIT_BYTE = [5, *range(8, 24)]  # the byte of d0, d1, ..., d16


def _row_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Per layout (E - E_MIN) * 18 + digits kept: the byte mask of a row
    (0xFF where the text keeps the byte) and the length of its line."""
    masks = [[0] * 28 for _ in range((1 - _E_MIN) * 18)]
    for e in range(_E_MIN, 1):
        for keep in range(1, 18):
            if e < 0:  # "0." and -e-1 zeros, then the digits
                kept = [0, 1, *range(2, 1 - e), *_DIGIT_BYTE[:keep]]
            else:  # d0, then the point and the other digits, if any
                kept = _DIGIT_BYTE[:1] + ([6, *_DIGIT_BYTE[1:keep]] if keep > 1 else [])
            for byte in kept + [24]:
                masks[(e - _E_MIN) * 18 + keep][byte] = 0xFF
    masks = np.array(masks, dtype=np.uint8)
    return masks, np.count_nonzero(masks, axis=1)


@functools.cache
def _tables() -> SimpleNamespace:
    """The row words and layouts, built on the first kernel call (~1 ms), so
    that a process which never formats a cloud does not pay for them."""
    # the digits of 0000..9999, most significant first, as uint8 columns
    digits = [np.tile(np.repeat(np.arange(10, dtype=np.uint8), 10**i), 10 ** (3 - i)) for i in (3, 2, 1, 0)]
    # keep[j][g]: the digits d0.. kept when group j (d4j+1 to d4j+4) holds g
    # and the groups after it are zero; 1 (d0 alone) for g = 0000
    last = np.select([d != 0 for d in digits[::-1]], [4, 3, 2, 1], 0).astype(np.uint8)
    row_mask, row_len = _row_layouts()
    return SimpleNamespace(
        lead=_words([[_ZERO, _DOT, _ZERO, _ZERO]])[0],
        head=_words([[_ZERO, _ZERO + d, _DOT, 0] for d in range(10)]),
        group=_words(np.column_stack(digits) + np.uint8(_ZERO)),
        end=_words([[_NL, 0, 0, 0]])[0],
        keep=[np.where(last > 0, last + np.uint8(1 + 4 * j), np.uint8(1)) for j in range(4)],
        row_mask=row_mask,
        row_len=row_len,
    )


def _digits17(x: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """round-half-even(x 10^(16 - e10)) as int64, exactly, for 16 - e10 <= 22
    and a result of at least 2^53."""
    k = 16 - e10
    p = x * _POW10[k]
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    c_hi, c_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((x_hi * c_hi - p) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def format17_lines(x) -> tuple[str, np.ndarray]:
    """The text ``"".join("%.17g\\n" % v for v in x)`` of a 1-D float array and
    its line bounds: line i is ``text[bounds[i]:bounds[i + 1]]``.

    1e-4 <= x < 8 takes the exact numpy path of the module docstring; any
    other value is formatted by ``%``, one row at a time."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    fast = (x >= _FAST_LO) & (x < _FAST_HI)
    slow = np.flatnonzero(~fast)
    xf = np.where(fast, x, np.float64(1.0)) if len(slow) else x
    e10 = np.floor(np.log10(xf)).astype(np.intp)
    d = _digits17(xf, e10)
    # log10 may miss E by one next to a power of ten, and D may round up to
    # 10^17; one step fixes both
    off = (d >= _D_HI).astype(np.intp) - (d < _D_LO)
    if off.any():
        fix = np.flatnonzero(off)
        e10[fix] += off[fix]
        d[fix] = _digits17(xf[fix], e10[fix])
    q8, r8 = np.divmod(d, np.int64(10**8))
    d0, q8 = np.divmod(q8, np.int64(10**8))
    t = _tables()
    words = np.empty((len(x), 7), dtype=np.uint32)
    words[:, 0] = t.lead
    words[:, 1] = t.head[d0]
    groups = np.divmod(q8, np.int64(10**4)) + np.divmod(r8, np.int64(10**4))
    keep = np.ones(len(x), dtype=np.uint8)  # d0 through the last nonzero digit
    for j, group in enumerate(groups):
        words[:, 2 + j] = t.group[group]
        np.maximum(keep, t.keep[j][group], out=keep)
    words[:, 6] = t.end
    rows = words.view(np.uint8)
    layout = (e10 - _E_MIN) * 18 + keep
    rows &= t.row_mask[layout]
    length = t.row_len[layout]
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        line = ("%.17g\n" % v).encode("ascii")
        rows[i] = 0
        rows[i, : len(line)] = np.frombuffer(line, dtype=np.uint8)
        length[i] = len(line)
    bounds = np.zeros(len(x) + 1, dtype=np.intp)
    np.cumsum(length, out=bounds[1:])
    return rows.tobytes().translate(None, b"\0").decode("ascii"), bounds


def write_records(path: str, records: list[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", newline="\n") as fh:
        for rec in records:
            fh.write(dumps17(rec))
            fh.write("\n")


def read_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
