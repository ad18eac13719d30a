"""Atomic file writes, and the exact text of float tables.

Everything lands via rename so readers never see partial output; the one
writer, atomic_write, takes its content as byte blocks and writes each as it
comes. Float tables are written as "%.17g" text by a numpy kernel
(_float_text) that writes the same bytes as Python's % format, which it calls
only for the values it cannot prove: non-finite ones and those near a
17-digit rounding tie.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain

import numpy as np

from .errors import IOError_

# A finite nonzero |v| is written from D = round(|v| * 10**(16 - e)), its 17
# digits, and its decimal exponent e. |v| * 10**s needs s in [-293, 341] (e in
# [-325, 309]), and a layout is tabled for every e in [-_E, _E].
_S_MIN, _S_MAX, _E = -293, 341, 330
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter: halves of 26 bits multiply exactly
_TIE = 1e-6  # a product this close to a rounding tie goes to Python's format
_CHUNK = 4096  # values per block of rows; it bounds the transient memory
_U8 = np.dtype("<u8")
# A value's text is built in a record of six little-endian words (48 bytes):
# byte 0 the sign, 1-5 the "0.000" lead, 7 the first digit, 8-39 the other 16
# digits each after a slot for the point, 40-44 the "e-308" exponent and 45
# the separator. Unused bytes are 0 and are deleted from the text.


def atomic_write(path: str, blocks: Iterable[bytes | memoryview]) -> None:
    """Write the blocks to path, each as it comes, through a temp file + rename in the same directory.

    If making a block raises, the temp file is removed and path is untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "wb") as fh:
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOError_(f"cannot write {path}: {exc}") from exc


@cache
def _tables():
    """The kernel's tables, built once on first use from exact integers.

    pow10 holds 10**s = (hi + lo) * 2**b for every s, with hi in [1, 2), and
    hi's Dekker halves. By e + _E: the record with the %g lead, point and
    exponent of that e, and kmin, the digits always written (the integer part
    of a fixed layout). By a 4-digit group: its text in words 1-4 of a record
    and its digits without trailing zeros. keep[d] keeps the first d digits.
    """
    pow10, b = np.empty((4, _S_MAX - _S_MIN + 1)), np.empty(_S_MAX - _S_MIN + 1, np.int32)
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        # 10**s * 2**-k = M / D in [1, 2); int / int rounds correctly
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        k = num.bit_length() - den.bit_length()
        M, D = (num, den << k) if k >= 0 else (num << -k, den)
        if M < D:
            k, M = k - 1, M << 1
        hi = M / D
        pow10[0, i], pow10[3, i], b[i] = hi, ((M << 52) - int(hi * 2**52) * D) / (D << 52), k
    pow10[1] = _SPLIT * pow10[0] - (_SPLIT * pow10[0] - pow10[0])
    pow10[2] = pow10[0] - pow10[1]
    layout, kmin = np.zeros((2 * _E + 1, 48), np.uint8), np.ones(2 * _E + 1, np.int64)
    layout[:, 45] = ord(",")
    for i, e in enumerate(range(-_E, _E + 1)):
        if -4 <= e < 0:
            layout[i, 1 : 2 - e] = list(b"0." + b"0" * (-e - 1))
        elif 0 <= e < 17:
            kmin[i] = e + 1
            if e < 16:
                layout[i, 8 + 2 * e] = ord(".")
        else:
            layout[i, 8] = ord(".")
            layout[i, 40 : 40 + len(b"e%+03d" % e)] = list(b"e%+03d" % e)
    g = np.arange(10**4)
    quad = np.zeros((10**4, 8), np.uint8)
    quad[:, 1::2] = 48 + g[:, None] // [1000, 100, 10, 1] % 10
    sig = 4 - sum(g % p == 0 for p in (10, 100, 1000, 10**4))
    keep = np.zeros((18, 32), np.uint8)
    for d in range(1, 18):
        keep[d, : 2 * d - 2] = 255
    return pow10, b, layout.view(_U8).T.copy(), kmin, quad.view(_U8).ravel(), sig, keep.view(_U8).T.copy()


def _scaled(f, E, s):
    """floor and fraction of f * 2**E * 10**s, to about 1e-13, for f in [0.5, 1).

    f times the double-double power is exact in its high part (Dekker 1971),
    and both parts are scaled by powers of two, which is exact.
    """
    pow10, b = _tables()[:2]
    hi, hh, hl, lo = np.take(pow10, s - _S_MIN, axis=1)
    fh = _SPLIT * f - (_SPLIT * f - f)
    fl = f - fh
    p = f * hi
    k = E + np.take(b, s - _S_MIN)
    x = np.ldexp(p, k)
    r = np.ldexp((fh * hh - p) + fh * hl + fl * hh + fl * hl + f * lo, k)
    whole = np.floor(x)
    r += x - whole
    carry = np.floor(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


def _records(v) -> np.ndarray:
    """The %.17g text of each value of a 1-D array as one 0-padded record (n x 6 words)."""
    _, _, layout, kmin, quad, sig, keep = _tables()
    a = np.abs(v)
    finite = np.isfinite(a)
    fast = finite & (a != 0)
    a = np.where(fast, a, 1.0)
    f, E = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(f, E, 16 - e)
    # the exponent comes from the floor of the exact product: log10 can be one off
    low, high = whole < 10**16, whole >= 10**17
    off = np.flatnonzero(low | high)
    if off.size:
        e[off] += high[off].astype(np.int64) - low[off]
        whole[off], frac[off] = _scaled(f[off], E[off], 16 - e[off])
    digits = whole + (frac > 0.5)
    up = digits == 10**17
    digits[up] //= 10
    e[up] += 1
    digits[~fast], e[~fast] = 0, 0
    slow = np.flatnonzero(~finite | (fast & (np.abs(frac - 0.5) < _TIE)))

    first = digits // 10**16
    halves = np.array(np.divmod(digits - first * 10**16, 10**8))
    groups = np.stack(np.divmod(halves, 10**4), axis=1).reshape(4, -1)
    kept = np.take(sig, groups)
    ndig = kept[0] + 1
    for j in (1, 2, 3):
        ndig = np.where(kept[j] > 0, kept[j] + 4 * j + 1, ndig)
    ndig = np.maximum(ndig, np.take(kmin, e + _E))
    words = np.take(layout, e + _E, axis=1)
    lead = (first.astype(_U8) + np.uint64(48)) << np.uint64(56)
    words[0] |= lead | np.signbit(v).astype(_U8) * np.uint64(45)
    words[1:5] |= np.take(quad, groups)
    words[1:5] &= np.take(keep, ndig, axis=1)
    rec = np.ascontiguousarray(words.T)
    if slow.size:
        text = "".join(("%.17g" % x).ljust(45, "\0") for x in v[slow].tolist())
        rec.view(np.uint8)[slow, :45] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 45)
    return rec


def _float_text(table) -> Iterator[bytes]:
    """The rows of a 2-D float table as comma-separated ASCII lines, exact to the bit.

    Every value is written with 17 significant digits, byte for byte as
    "%.17g" writes it, which round-trips every binary64 value through float(),
    so the text parses back to the same bits; -0.0, nan and +-inf print as -0,
    nan and +-inf. Each row ends in a newline. The text is built by _records
    and yielded one block of about _CHUNK values at a time, so transient
    memory does not grow with the table.
    """
    table = np.asarray(table, dtype=float)
    m, n = table.shape
    if n == 0:
        yield b"\n" * m
        return
    step = max(1, _CHUNK // n)
    for start in range(0, m, step):
        rec = _records(table[start : start + step].ravel())
        rec[n - 1 :: n, 5] ^= np.uint64((ord(",") ^ ord("\n")) << 40)  # each row ends in a newline
        yield rec.tobytes().translate(None, b"\0")


def _write_csv(path: str, header: list[str], table, comment: str | None = None) -> None:
    """Write a 2-D float table as CSV: an optional comment line, the header, then exact rows."""
    head = ([] if comment is None else [comment]) + [",".join(header), ""]
    atomic_write(path, chain(["\n".join(head).encode()], _float_text(table)))
