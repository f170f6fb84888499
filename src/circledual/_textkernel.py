"""The artifact writer's text for large blocks, built in numpy.

``block_text`` gives exactly the bytes of the printf template in
``figdata``: ``"%.17g"`` per float, ``"%d"`` per integer and
``true``/``false`` per bool, each field followed by its separator, and
``column_texts`` the same per column.  ``figdata`` calls them for blocks
of ``_KERNEL_CELLS`` cells or more (``_INTEGER_KERNEL_CELLS`` for a block
of only integers and bools).

Every value gets a fixed-width field of little-endian 64-bit words, its
separator included, that holds a superset of its text: NUL stands in every
place the value has no character, and bytes.translate drops the NULs of
the whole block at once.  A float field is six words:

  byte 0      '-' or NUL
  bytes 1-5   the "0.000" of 1e-4 <= |x| < 0.1, as far as the value needs it
  bytes 6-38  the 17 significant digits at the even bytes, each of the
              first 16 followed by a slot for the '.'
  bytes 40-44 "e+ddd" or "e-ddd" of the exponential form, hundreds NUL below 100
  bytes 45-46 the separator

The digits are D = round(y), y = |x| * 10**(16 - e) for e = floor(log10|x|),
from Dekker's exact product of |x| with 10**(16 - e) held as hi + lo: y is
off by less than 1e-14 (in units of D's last digit).  D is used only when
y lies in [10**16, 10**17) and so does D, and y's fraction is more than
_TIE_MARGIN = 1e-9 from 1/2, which leaves out the exact ties that "%.17g"
rounds to even.  Every other value (a tie, a value beside a power of ten,
an exponent outside the table, a subnormal) is formatted alone by
"%.17g".  The text's exponent is then e, and D has 17 - (its trailing
zeros) significant digits.

An integer field is as wide as the widest magnitude of its run needs: the
sign in byte 0, then c chunks of 4 digits, most significant first, with
leading zeros NUL, then the separator.  That is c // 2 + 1 words, one
while every |v| < 10**4 and three at the 64-bit extremes; a one-chunk
field is a single table lookup, with no division.  A bool field is one
word.

The word matrix is field-word-major, one row per word of a field, so the
kernel writes whole contiguous rows; its transpose is the text's bytes.
A CSV block reads the whole transpose, rows of the artifact.  A JSON
artifact small enough for one block fills one matrix for all its columns
(``column_texts``) and reads each column's text from that column's own
rows, since JSON lays the columns out one after another.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import groupby
from typing import NamedTuple

import numpy as np

_E_MIN, _E_MAX = -292, 299  # 10**(16 - e) and the split of |x| stay finite
_TIE_MARGIN = 1e-9
_WORD = np.dtype("<u8")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _as_words(byte_rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(_WORD)


class _Tables(NamedTuple):
    pow_hi: np.ndarray  # 10**(16 - e) ~ pow_hi + pow_lo, row _E_MAX - e
    pow_lo: np.ndarray
    pow_hi_split: tuple[np.ndarray, np.ndarray]
    head: np.ndarray  # float word 0 less sign and lead digit, row _E_MAX - e
    tail: np.ndarray  # float word 5 less separator, row _E_MAX - e
    min_keep: np.ndarray  # digits shown however few are significant, row _E_MAX - e
    dot_slot: np.ndarray  # slot of the '.' if digits follow it, row _E_MAX - e
    keep_mask: np.ndarray  # float words 0-4 that show k digits, column k
    dot: np.ndarray  # float words 0-4 with '.' in slot s, column s; column 17 none
    chunk_zeros: np.ndarray  # trailing zeros of 0..9999 written with 4 digits
    chunk_slotted: np.ndarray  # 0..9999 as "d d d d " with NUL slots, one word
    chunk_digits: np.ndarray  # 0..9999 as 4 digit bytes, the low half of a word
    int_short: np.ndarray  # 0..9999 as a one-chunk integer field less sign and separator
    int_drop: np.ndarray  # integer words 0-2 with the first z digit slots NUL, column z
    int_limits: np.ndarray  # 10, 100, ..., 10**19: digit counts by searchsorted


def _build_tables() -> _Tables:
    """The kernel's tables, from integers and numpy (about 1 ms)."""
    # 10**k rounded exactly for k >= 0; 10**-k as the reciprocal of 10**k
    # corrected by its residual 1 - r * 10**k, taken exactly by a Dekker product
    k_max = 16 - _E_MIN
    up_hi, up_lo = np.empty(k_max + 1), np.empty(k_max + 1)
    power = 1
    for k in range(k_max + 1):
        up_hi[k] = hi = float(power)
        up_lo[k] = float(power - int(hi))
        power *= 10
    hi, lo = up_hi[_E_MAX - 16 : 0 : -1], up_lo[_E_MAX - 16 : 0 : -1]
    r = 1.0 / hi
    r_hi, r_lo = _split(r)
    h_hi, h_lo = _split(hi)
    p = r * hi
    residual = ((r_hi * h_hi - p) + r_hi * h_lo + r_lo * h_hi) + r_lo * h_lo
    pow_hi = np.concatenate([r, up_hi])
    pow_lo = np.concatenate([((1.0 - p) - residual - r * lo) / hi, up_lo])
    mantissa, exponent = np.frexp(pow_hi)  # split without overflow near 1e308
    m_hi, m_lo = _split(mantissa)

    e = np.arange(_E_MAX, _E_MIN - 1, -1)
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    head = np.zeros((e.size, 8), np.uint8)
    head[small, 1:3] = np.frombuffer(b"0.", np.uint8)
    head[:, 3:6] = np.where(small[:, None] & (np.arange(3) < -1 - e[:, None]), ord("0"), 0)
    tail = np.zeros((e.size, 8), np.uint8)
    magnitude = np.abs(e)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2] = np.where(magnitude >= 100, 48 + magnitude // 100, 0)
    tail[:, 3] = 48 + magnitude // 10 % 10
    tail[:, 4] = 48 + magnitude % 10
    tail[fixed] = 0

    keep = np.zeros((18, 40), np.uint8)
    keep[:, :6] = 0xFF
    keep[:, 6 + 2 * np.arange(17)] = np.where(np.arange(17) < np.arange(18)[:, None], 0xFF, 0)
    dot = np.zeros((18, 40), np.uint8)
    dot[np.arange(17), 7 + 2 * np.arange(17)] = ord(".")
    int_drop = np.full((20, 24), 0xFF, np.uint8)
    int_drop[:, 1:21] = np.where(np.arange(20) < np.arange(20)[:, None], 0, 0xFF)

    # 0..9999 indexed as [d0, d1, d2, d3]: its digits and its trailing zeros
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10_000, 4)
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    for place in range(4):
        zeros[(slice(None),) * place + (0,) * (4 - place)] += 1
    slotted = np.zeros((10_000, 8), np.uint8)
    slotted[:, ::2] = digits
    short = np.zeros((10_000, 8), np.uint8)
    length = np.searchsorted([10, 100, 1000], np.arange(10_000), side="right") + 1
    short[:, 1:5] = np.where(np.arange(4) >= 4 - length[:, None], digits, 0)
    return _Tables(
        pow_hi=pow_hi,
        pow_lo=pow_lo,
        pow_hi_split=(np.ldexp(m_hi, exponent), np.ldexp(m_lo, exponent)),
        head=_as_words(head).ravel(),
        tail=_as_words(tail).ravel(),
        min_keep=np.where(fixed & (e >= 0), e + 1, 1),
        dot_slot=np.where(fixed, np.where((e >= 0) & (e < 16), e, 16), 0),
        keep_mask=_as_words(keep).T.copy(),
        dot=_as_words(dot).T.copy(),
        chunk_zeros=zeros.ravel(),
        chunk_slotted=_as_words(slotted).ravel(),
        chunk_digits=digits.view("<u4").ravel().astype(_WORD),
        int_short=_as_words(short).ravel(),
        int_drop=_as_words(int_drop).T.copy(),
        int_limits=np.array([10**k for k in range(1, 20)], dtype=np.uint64),
    )


# built once, when figdata first imports this module for a large block
TABLES = _build_tables()


def _sep_words(seps: list[str], shift: int) -> np.ndarray:
    """One word per separator, its first byte at byte ``shift``; shaped (m, 1)."""
    return np.array(
        [[int.from_bytes(sep.encode(), "little") << (8 * shift)] for sep in seps], dtype=_WORD
    )


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value: its power-table row, its 17 significant digits D, and whether D is certified.

    The arithmetic runs in place where it can, so that few value-sized
    arrays are alive at once.
    """
    t = TABLES
    a = np.abs(x)
    e = np.log10(a, out=np.zeros_like(a), where=a > 0)
    e = np.floor(e, out=e).astype(np.intp)
    in_table = (e >= _E_MIN) & (e <= _E_MAX)
    a[~in_table] = 0.0
    row = np.subtract(_E_MAX, np.clip(e, _E_MIN, _E_MAX, out=e), out=e)
    # y = a * 10**(16 - e) = p + rest: Dekker's exact a * pow_hi, plus a * pow_lo
    a_hi, a_lo = _split(a)
    p_hi = t.pow_hi_split[0].take(row)
    p = a * t.pow_hi.take(row)
    rest = a_hi * p_hi
    rest -= p
    p_lo = t.pow_hi_split[1].take(row)
    rest += a_hi * p_lo
    rest += np.multiply(a_lo, p_hi, out=p_hi)
    rest += np.multiply(a_lo, p_lo, out=p_lo)
    del a_hi, a_lo, p_hi, p_lo
    rest += a * t.pow_lo.take(row)
    floor = np.floor(rest)
    frac = np.subtract(rest, floor, out=rest)
    below = p.astype(np.int64)  # p >= 2**53 is whole: below = floor(y)
    below += floor.astype(np.int64)
    digits = below + (frac > 0.5)
    exact = np.abs(frac - 0.5) > _TIE_MARGIN
    exact &= below >= 10**16
    exact &= digits < 10**17
    exact |= a == 0
    exact &= in_table
    return row, digits, exact


def _fill_floats(out: np.ndarray, x: np.ndarray, seps: list[str]) -> None:
    """Float fields of x, (m, n), into out, (m, 6, n) words."""
    t = TABLES
    row, digits, exact = _decimal(x)
    lead = digits // 10**16
    chunks = []
    digits -= lead * 10**16
    for power in (10**12, 10**8, 10**4):
        chunks.append(digits // power)
        digits -= chunks[-1] * power
    chunks.append(digits)
    # trailing zeros of the 16 digits after the lead, the last nonzero chunk's own
    # plus 4 for every zero chunk after it
    zeros = t.chunk_zeros.take(chunks[0])
    for chunk in chunks[1:]:
        zeros = np.where(chunk == 0, 4 + zeros, t.chunk_zeros.take(chunk))
    significant = 17 - zeros

    head = t.head.take(row)
    head |= (lead.astype(_WORD) + 48) << 48
    head |= np.signbit(x).astype(_WORD) * ord("-")
    out[:, 0] = head
    del head, lead
    for word, chunk in enumerate(chunks, start=1):
        out[:, word] = t.chunk_slotted.take(chunk)
    del chunks, chunk, digits
    shown = np.maximum(significant, t.min_keep.take(row))
    slot = t.dot_slot.take(row)
    slot = np.where(significant > slot + 1, slot, 17)
    for word in range(5):
        out[:, word] &= t.keep_mask[word].take(shown)
        out[:, word] |= t.dot[word].take(slot)
    out[:, 5] = t.tail.take(row) | _sep_words(seps, 5)
    cols, rows = np.nonzero(~exact)
    if rows.size:
        texts = [("%.17g" % value + seps[col]).encode()
                 for value, col in zip(x[cols, rows].tolist(), cols.tolist())]
        out[cols, :, rows] = np.array(texts, dtype="S48").view(_WORD).reshape(-1, 6)


def _int_chunks(x: np.ndarray) -> int:
    """The 4-digit chunks that the widest magnitude of x needs, at least one."""
    widest = max(int(x.max()), -int(x.min()))
    return (len(str(widest)) + 3) // 4


def _fill_ints(out: np.ndarray, x: np.ndarray, seps: list[str], chunks: int) -> None:
    """Integer fields of x, (m, n) of one integer kind, into out, (m, chunks // 2 + 1, n) words."""
    t = TABLES
    signed = x.dtype.kind == "i"
    magnitude = x.astype(np.int64, copy=False)
    if signed:
        magnitude = np.abs(magnitude)  # the least int64 stays itself: 2**63 as a uint64
    if chunks == 1:
        out[:, 0] = t.int_short.take(magnitude)
    else:
        magnitude = magnitude.view(np.uint64)
        parts, rest = [], magnitude
        for k in range(chunks - 1, 0, -1):
            power = np.uint64(10 ** (4 * k))
            parts.append(rest // power)
            rest = rest - parts[-1] * power
        parts.append(rest)
        out[:] = 0
        for j, part in enumerate(parts):
            # chunk j takes bytes 1 + 4j to 4 + 4j: bytes 1-4 of word j // 2
            # for even j, bytes 5-7 of it and byte 0 of the next for odd j
            word, offset = divmod(1 + 4 * j, 8)
            quad = t.chunk_digits.take(part)
            out[:, word] |= quad << np.uint64(8 * offset)
            if offset == 5:
                out[:, word + 1] |= quad >> np.uint64(24)
        count = np.searchsorted(t.int_limits[: 4 * chunks - 1], magnitude, side="right") + 1
        drop = 4 * chunks - count
        for word in range(chunks // 2 + 1):
            out[:, word] &= t.int_drop[word].take(drop)
    if signed:
        out[:, 0] |= (x < 0).astype(_WORD) * np.uint64(ord("-"))
    out[:, chunks // 2] |= _sep_words(seps, (1 + 4 * chunks) % 8)


def _fill_bools(out: np.ndarray, x: np.ndarray, seps: list[str]) -> None:
    """Bool fields of x, (m, n), into out, (m, 1, n) words."""
    texts = [(word + sep).encode() for sep in seps for word in ("false", "true")]
    words = np.array(texts, dtype="S8").view(_WORD)
    out[:, 0] = words.take(x.view(np.uint8) + 2 * np.arange(len(seps), dtype=np.uint8)[:, None])


def _field(x: np.ndarray) -> tuple[int, Callable]:
    """Words per field of a run x, (columns, rows) of one dtype kind, and its fill function."""
    kind = x.dtype.kind
    if kind == "f":
        return 6, _fill_floats
    if kind == "b":
        return 1, _fill_bools
    chunks = _int_chunks(x)
    return chunks // 2 + 1, partial(_fill_ints, chunks=chunks)


def _words(block: list[np.ndarray], seps: list[str]) -> tuple[np.ndarray, list[slice]]:
    """The block's word matrix, and the rows that hold each column's fields.

    Neighbouring columns of one dtype kind are formatted together, as one
    (columns, rows) array, so the fixed cost is paid per run, not per column.
    """
    rows = len(block[0])
    runs = []
    for _, run in groupby(zip(block, seps), key=lambda pair: pair[0].dtype.kind):
        arrays, run_seps = zip(*run)
        x = np.stack(arrays)
        runs.append((x, list(run_seps), *_field(x)))
    words = np.empty((sum(len(x) * width for x, _, width, _ in runs), rows), _WORD)
    spans, start = [], 0
    for x, run_seps, width, fill in runs:
        stop = start + width * len(x)
        fill(words[start:stop].reshape(len(x), width, rows), x, run_seps)
        spans.extend(slice(row, row + width) for row in range(start, stop, width))
        start = stop
    return words, spans


def block_text(block: list[np.ndarray], seps: list[str]) -> bytes:
    """The template's text of a block, row by row, laid out in one word matrix."""
    words, _ = _words(block, seps)
    text = words.T.tobytes()
    del words
    return text.translate(None, b"\0")


def column_texts(block: list[np.ndarray], seps: list[str]) -> list[bytes]:
    """The template's text of each column of a block on its own, from one word
    matrix: a column's text is the transpose of its own rows."""
    words, spans = _words(block, seps)
    return [words[span].T.tobytes().translate(None, b"\0") for span in spans]
