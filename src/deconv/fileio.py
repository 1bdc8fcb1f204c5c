"""Small file helpers: atomic text writes and the one CSV writer."""

from __future__ import annotations

import os

import numpy as np


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write str or bytes `text` to `path`; readers never see a partial file.

    The file gets the mode a plain `open` would give it (0o666 less the
    umask): the temporary file is created with that mode and renamed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(6).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(text, str) else "wb") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: str, columns) -> None:
    """Header line, then one line per row: field j of row i is columns[j][i].

    `columns` holds one 1-D array per header column, all of one length.
    Every field is written exactly as `'%.17g' % x`, which round-trips a
    double.
    """
    if len(columns) != header.count(",") + 1:
        raise ValueError(f"header {header!r} does not name {len(columns)} "
                         "columns")
    text = bytearray((header + "\n").encode())
    _format_rows(columns, text)
    atomic_write_text(path, text)


# --- '%.17g' in numpy -----------------------------------------------------
#
# For 1e-29 <= |x| < 1e17 the 17 significant digits of x are the integer
# nearest to x * 10**p, p = 16 - floor(log10 |x|) in [0, 45].  10**p is a
# double (p <= 22) or an exact pair hi + lo of doubles (p <= 45, since
# 10**p = 2**p * 5**p and 5**45 has 105 bits).  Dekker's two-product gives
# x * hi exactly as a head plus a tail, and x * lo adds at most a few 1e-15
# of rounding to the tail.  The head is an even integer (it exceeds 2**53),
# so rounding the tail half to even rounds the product half to even, and
# the nearest integer is exact unless the fraction is within 1e-9 of 1/2.
# Those near-ties, nan, inf and the other magnitudes go through `%`.

_BLOCK_FIELDS = 3072
_TIE_MARGIN = 1e-9
_SPLITTER = 134217729.0            # 2**27 + 1, Veltkamp's constant


def _split(a):
    """Veltkamp split: a = hi + lo, each half with at most 26 bits."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI = np.array([float(10 ** p) for p in range(46)])
_POW10_LO = np.array([float(10 ** p - int(float(10 ** p))) for p in range(46)])
_POW10_HH, _POW10_HL = _split(_POW10_HI)


def _scaled(a, k):
    """a * 10**(16 - k) as head + tail: head is the rounded product with
    the power's high part, tail its exact error plus the low part's
    product."""
    p = 16 - k
    hi, hh, hl = _POW10_HI.take(p), _POW10_HH.take(p), _POW10_HL.take(p)
    head = a * hi
    ah, al = _split(a)
    tail = ((ah * hh - head) + ah * hl + al * hh) + al * hl
    return head, tail + a * _POW10_LO.take(p)


def _digits(v):
    """Per value: decimal exponent k, the 17-digit integer n with
    |v| ~ n * 10**(k - 16) (k = n = 0 for zeros), and whether the two are
    exact; where not, `%` formats the value."""
    a = np.abs(v)
    fast = (a >= 1e-29) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -29, 16).astype(np.intp)
    head, tail = _scaled(a, k)
    # log10 may miss by one next to a power of ten; the exact product
    # decides, never its rounded value (1e-7 is 9.9999999999999995e-08)
    step = (((head - 1e17) + tail >= 0).astype(np.intp)
            - ((head - 1e16) + tail < 0))
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        fast[moved] &= k[moved] >= -29      # 1e-29 itself is below 10**-29
        k[moved] = np.clip(k[moved], -29, 16)
        head[moved], tail[moved] = _scaled(a[moved], k[moved])
    fast &= np.abs(tail - np.floor(tail) - 0.5) >= _TIE_MARGIN
    n = head.astype(np.int64) + np.rint(tail).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    zero = v == 0
    k[zero] = 0
    n[zero] = 0
    return k, n, fast | zero


def _keep_table():
    """Which template bytes `'%.17g'` prints, per (k, significant digits,
    sign): row ((k + 29) * 17 + digits - 1) * 2 + negative."""
    k, sig, neg = (g.ravel() for g in np.meshgrid(
        np.arange(-29, 18), np.arange(1, 18), [False, True], indexing="ij"))
    fixed = (k >= -4) & (k < 17)
    below_one = fixed & (k < 0)
    whole = np.where(fixed & (k >= 0), k + 1, 1)
    point = np.where(below_one | (sig <= whole), -1, whole - 1)
    slots = np.arange(17)
    keep = np.zeros((k.size, _WIDTH), dtype=bool)
    keep[:, 0] = neg
    keep[:, 1:3] = below_one[:, None]
    keep[:, 3:6] = slots[:3] < np.where(below_one, -1 - k, 0)[:, None]
    keep[:, 6:40:2] = slots < np.where(below_one, sig,
                                       np.maximum(sig, whole))[:, None]
    keep[:, 7:40:2] = slots == point[:, None]
    keep[:, 40:44] = ~fixed[:, None]
    keep[:, 44] = True
    return keep


def _digit_tables():
    """Per 4-digit group q: its bytes 'd.d.d.d.' as one uint64, and, for
    the group at position i of the 16 digits after the first, the count of
    significant digits up to its last nonzero one (1 when q is 0)."""
    q = np.arange(10000, dtype=np.int32)
    groups = np.full((10000, 8), ord("."), dtype=np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * j] = q // scale % 10 + 48
    kept = 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0)
    significant = np.ones((4, 10000), dtype=np.uint8)
    for i in range(4):
        significant[i, q > 0] = 1 + 4 * i + kept[q > 0]
    return groups.view(np.uint64).ravel(), significant


def _exponent_table():
    """'e-29' .. 'e+17' as one uint32 each, indexed by k + 29."""
    k = np.arange(-29, 18)
    chars = np.empty((k.size, 4), dtype=np.uint8)
    chars[:, 0] = ord("e")
    chars[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    chars[:, 2] = abs(k) // 10 + 48
    chars[:, 3] = abs(k) % 10 + 48
    return chars.view(np.uint32).ravel()


_WIDTH = 48
_KEEP = _keep_table()
_GROUPS, _SIGNIFICANT = _digit_tables()
_EXPONENTS = _exponent_table()
_HEAD = np.frombuffer(b"-0.0000.", dtype=np.uint64)[0]


def _format_rows(columns, out: bytearray) -> None:
    """Append to `out` one CSV line per row of the equal-length 1-D
    `columns`, formatting `_BLOCK_FIELDS` varying fields at a time.

    A column whose values all share one bit pattern is printed once, by
    `%`.  Each field of the other columns is laid out in one row of
    `_WIDTH` bytes:

        col 0       '-'
        cols 1-5    '0.000'          (fixed notation below 1)
        cols 6-39   17 digits, each followed by a '.' slot
        cols 40-43  'e', exponent sign and two exponent digits
        col 44      ',' or, after a row's last field, newline

    and a byte mask from `_KEEP` zeroes what `'%.17g'` does not print (the
    `%` fallback pads with NULs); no printed byte is NUL, so deleting NULs
    lays out every field at once.  With constant columns, a block's lines
    are copied from its field rows into lines that hold the constants'
    bytes already.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("CSV columns must be 1-D and of one length")
    rows, seps = cols[0].size, [","] * (len(cols) - 1) + ["\n"]
    texts = [("%.17g" % c[0] + sep).encode() if rows and _constant(c)
             else None for c, sep in zip(cols, seps)]
    varying = [j for j, text in enumerate(texts) if text is None]
    per_block = max(1, _BLOCK_FIELDS // max(1, len(varying)))
    block_rows = min(rows, per_block)
    buf = np.zeros((block_rows * len(varying), _WIDTH), dtype=np.uint8)
    buf[:, 44] = np.tile(np.frombuffer("".join(seps[j] for j in varying)
                                       .encode(), dtype=np.uint8), block_rows)
    line = None  # with constants, a line is its fields and their bytes
    if len(varying) < len(cols):
        slots = np.cumsum([0] + [_WIDTH if text is None else len(text)
                                 for text in texts])
        line = np.zeros((block_rows, slots[-1]), dtype=np.uint8)
        for j, text in enumerate(texts):
            if text is not None:
                line[:, slots[j]:slots[j + 1]] = np.frombuffer(
                    text, dtype=np.uint8)
    for lo in range(0, rows, per_block):
        n = min(per_block, rows - lo)
        v = (np.stack([cols[j][lo:lo + n] for j in varying], axis=1).ravel()
             if varying else np.zeros(0))
        block = buf[:v.size]
        _format_fields(v, block)
        if line is not None:
            for i, j in enumerate(varying):
                line[:n, slots[j]:slots[j + 1]] = block[i::len(varying)]
            block = line[:n]
        out.extend(block.tobytes().translate(None, b"\0"))


def _constant(c) -> bool:
    """Whether every value of the nonempty c has the bits of c[0]; the
    last value is tried first."""
    bits = c.view(np.int64)
    return bool(bits[-1] == bits[0] and np.all(bits == bits[0]))


def _format_fields(v, buf):
    """Lay out v's fields in the rows of buf, whose separators are set."""
    k, n, exact = _digits(v)
    high = n // 100000000
    low = n - high * 100000000
    top = high // 100000000
    quads = (high // 10000 - top * 10000, high - high // 10000 * 10000,
             low // 10000, low - low // 10000 * 10000)
    words = buf.view(np.uint64)
    words[:, 0] = _HEAD
    buf[:, 6] = top + 48
    significant = np.ones(v.size, dtype=np.uint8)
    for i, q in enumerate(quads):
        words[:, 1 + i] = _GROUPS.take(q)
        np.maximum(significant, _SIGNIFICANT[i].take(q), out=significant)
    del high, low, top, quads  # freed before the mask, the largest temporary
    buf.view(np.uint32)[:, 10] = _EXPONENTS.take(k + 29)
    code = ((k + 29) * 17 + significant - 1) * 2 + np.signbit(v)
    buf *= _KEEP.take(code, axis=0)

    slow = np.flatnonzero(~exact)
    if slow.size:
        text = "".join(["%-24.17g" % x for x in v[slow].tolist()])
        buf[slow, :44] = 0
        buf[slow, :24] = np.frombuffer(text.replace(" ", "\0").encode(),
                                       dtype=np.uint8).reshape(-1, 24)
