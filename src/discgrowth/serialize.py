"""Deterministic JSON emission: sorted keys, floats at 17 significant digits,
line-delimited records.

``format17_lines`` formats a float64 array as ``"%.17g"`` lines in one numpy
pass, byte for byte as ``%`` would, and returns them as ASCII bytes (the
Riesz cloud's theta column).  Its fast path covers 1e-4 <= x < 8, where
``%g`` uses fixed notation with a decimal exponent E in [-4, 0], and needs
no binary-to-decimal conversion routine.  E counts the powers of ten at or
below x.  The 17 significant digits D = round-half-even(x 10^(16-E)) come
from one exact product: 10^k is an exact double for k <= 22, so x 10^k is
the rounded product p plus its exact error e (Dekker's two-product), and
p >= 2^53 is an even integer, so D = p + rint(e) rounds ties to even.  A
row of the text is seven 4-byte words, each taken whole from a table: the
"0." prefix by E, d0 and the point by E and whether a later digit is
nonzero, and each 4-digit group with its trailing zeros blanked when no
later group is nonzero; the blanks (NUL bytes) are deleted from the block at
once.  Every other value (zero, negatives, subnormals, values below 1e-4,
which ``%g`` writes in exponent form, values of 8 and above, non-finite
ones) is formatted by ``"%.17g" % x``, one row at a time.
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
# 10^E <= x < 10^(E + 1) for 1e-4 <= x < 8 is E = _E_MIN plus the number of
# these edges at or below x; each double lies above its power of ten (or is
# one), so the count is exact
_E_EDGES = (1e-3, 1e-2, 1e-1, 1.0)
_D_HI = np.int64(10**17)
_POW10 = 10.0 ** np.arange(23, dtype=np.float64)
_SPLIT = np.float64(134217729.0)  # 2^27 + 1, Veltkamp's splitter
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(rows) -> np.ndarray:
    """Rows of 4 byte values as native uint32 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()


# A row is 7 uint32 words, 28 bytes: "0.00" | "0" d0 "." NUL | d1-d4 | d5-d8 |
# d9-d12 | d13-d16 | "\n" NUL NUL NUL, where every byte that %g does not
# print is NUL.  NUL bytes never reach the text.
_ZERO, _DOT, _NL = 48, 46, 10


@functools.cache
def _tables() -> SimpleNamespace:
    """The row words, built on the first kernel call (~1 ms), so that a
    process which never formats a cloud does not pay for them:

    - lead[E - E_MIN]: the first word, the part of "0.00" that E prints;
    - head[(E - E_MIN, d0, f)]: the second word, flattened, with the fifth
      byte of the "0." prefix (E = -4), d0, and the point if E = 0 and f
      (a later digit is nonzero);
    - group[g + 10^4 m]: the digits of the group g, with its trailing zeros
      NUL unless m (a later group is nonzero)."""
    lead, head = [], []
    for e in range(_E_MIN, 1):
        prefix = [_ZERO, _DOT] + [_ZERO] * (-e - 1) if e < 0 else []
        lead.append((prefix[:4] + [0] * 4)[:4])
        fifth = prefix[4] if len(prefix) > 4 else 0
        head += [[fifth, _ZERO + d0, _DOT if e == 0 and f else 0, 0] for d0 in range(10) for f in (0, 1)]
    # the digits of 0000..9999, most significant first, and which of them
    # come before or at the last nonzero one
    digits = np.column_stack([np.tile(np.repeat(np.arange(10, dtype=np.uint8), 10**i), 10 ** (3 - i))
                              for i in (3, 2, 1, 0)])
    printed = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] != 0
    chars = digits + np.uint8(_ZERO)
    return SimpleNamespace(
        lead=_words(lead),
        head=_words(head),
        group=_words(np.concatenate([np.where(printed, chars, np.uint8(0)), chars])),
        end=_words([[_NL, 0, 0, 0]])[0],
    )


def _digits17(x: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """round-half-even(x 10^(16 - e10)) as int64, exactly, for 16 - e10 <= 22
    and a result of at least 2^53."""
    k = 16 - e10
    p = x * _POW10.take(k)
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    c_hi, c_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = ((x_hi * c_hi - p) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _split(n: np.ndarray, unit: np.int64) -> tuple[np.ndarray, np.ndarray]:
    """n // unit and n % unit for n >= 0, by one floor division: numpy
    divides an int64 array by one scalar in about half the time that
    ``np.divmod`` takes."""
    q = n // unit
    return q, n - q * unit


def format17_lines(x) -> tuple[bytes, np.ndarray]:
    """The text ``"".join("%.17g\\n" % v for v in x)`` of a 1-D float array
    as ASCII bytes, and its line bounds: line i is
    ``text[bounds[i]:bounds[i + 1]]``.

    1e-4 <= x < 8 takes the exact numpy path of the module docstring; any
    other value is formatted by ``%``, one row at a time."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    fast = (x >= _FAST_LO) & (x < _FAST_HI)
    slow = np.flatnonzero(~fast)
    xf = np.where(fast, x, np.float64(1.0)) if len(slow) else x
    e10 = np.full(len(x), _E_MIN, dtype=np.intp)
    for edge in _E_EDGES:
        e10 += xf >= edge
    d = _digits17(xf, e10)
    # D may round up to 10^17; one step fixes it
    up = np.flatnonzero(d >= _D_HI)
    if len(up):
        e10[up] += 1
        d[up] = _digits17(xf[up], e10[up])
    q8, r8 = _split(d, np.int64(10**8))
    d0, q8 = _split(q8, np.int64(10**8))
    g0, g1 = _split(q8, np.int64(10**4))
    g2, g3 = _split(r8, np.int64(10**4))
    t = _tables()
    words = np.empty((len(x), 7), dtype=np.uint32)
    words[:, 0] = t.lead.take(e10 - _E_MIN)
    more = g3 != 0  # a digit after the group written next is nonzero
    words[:, 5] = t.group.take(g3)
    words[:, 4] = t.group.take(g2 + more * 10**4)
    more = r8 != 0
    words[:, 3] = t.group.take(g1 + more * 10**4)
    more |= g1 != 0
    words[:, 2] = t.group.take(g0 + more * 10**4)
    more |= g0 != 0
    words[:, 1] = t.head.take(((e10 - _E_MIN) * 10 + d0) * 2 + more)
    words[:, 6] = t.end
    rows = words.view(np.uint8)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        line = ("%.17g\n" % v).encode("ascii")
        rows[i] = 0
        rows[i, : len(line)] = np.frombuffer(line, dtype=np.uint8)
    text = words.tobytes().translate(None, b"\0")
    bounds = np.zeros(len(x) + 1, dtype=np.intp)
    bounds[1:] = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == _NL) + 1
    return text, bounds


def write_records(path: str, records: list[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", newline="\n") as fh:
        for rec in records:
            fh.write(dumps17(rec))
            fh.write("\n")


def read_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
