"""Job-stream parsing and schedule CSV formatting, a block at a time in
numpy: float_chunks reads job values as float() does, and
write_schedule_csv writes times as repr() does."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, BinaryIO, Iterator, TextIO

import numpy as np

from .errors import JobValueError

if TYPE_CHECKING:
    from .schedule import SecondPass

__all__ = ["float_chunks", "write_schedule_csv"]

_READ_CHARS = 1 << 16
_PLAIN_DIGITS = 18  # every 18-digit integer is an int64


# --- job streams -------------------------------------------------------------


def _parse_job(tok: str, position: int) -> float:
    try:
        return float(tok)
    except ValueError:
        # streams are decoded with surrogateescape: a byte that is not
        # UTF-8 comes back as a lone surrogate
        raw = [ord(ch) - 0xDC00 for ch in tok if 0xDC80 <= ord(ch) <= 0xDCFF]
        what = f"byte {raw[0]:#04x}, which is not UTF-8," if raw else f"unparsable job value {tok!r}"
        raise JobValueError(f"{what} at position {position}", position=position) from None


_PAIRS = np.uint64(0x00FF00FF00FF00FF)
_QUADS = np.uint64(0x0000FFFF0000FFFF)


def _lane_values(words: np.ndarray, end: np.ndarray, size: np.ndarray) -> np.ndarray:
    """uint64 value of each run of 1 to 8 digits whose last digit is the
    top byte of words[end]; size holds the runs' digit counts.

    A lane holds a digit's value in each byte, the run's first digit at
    its lowest: the shifts zero the 8 - size bytes below the run, which
    then read as leading zeros.  Each multiply-shift step adds
    neighbouring digits, then pairs, then quads, into the lower byte,
    byte pair or byte quad.
    """
    lanes = words.take(end)
    below = 8 - size
    below <<= 3
    below = below.view(np.uint64)
    lanes >>= below
    lanes <<= below
    # every byte is at most 9, so the digits need no mask
    lanes *= np.uint64(10 << 8 | 1)
    lanes >>= np.uint64(8)
    lanes &= _PAIRS
    lanes *= np.uint64(100 << 16 | 1)
    lanes >>= np.uint64(16)
    lanes &= _QUADS
    lanes *= np.uint64(10000 << 32 | 1)
    lanes >>= np.uint64(32)
    return lanes


def _plain_values(text: str) -> np.ndarray | None:
    """float64 values of an ASCII text of digit runs and whitespace, or None
    when it holds any other byte or a run of more than _PLAIN_DIGITS digits.

    The whitespace is the six bytes that both str.split() and bytes.split()
    split on: tab, newline, vertical tab, form feed, carriage return, space.

    Each run is read eight digits at a time, as one uint64 lane: the eight
    bytes that end at its last digit, or at the digit eight or sixteen
    places before it for the longer runs (see _lane_values).  The lanes
    make an int64 of at most 18 digits, which is exact and whose
    conversion is correctly rounded, so each value is float() of its run
    bit for bit.
    """
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    # z[8 + i] is chars[i] minus "0": a digit's value, and past 9 for
    # whitespace, which wraps, and for the padding, 8 bytes in front so
    # that every lane lies inside z and one behind the last run
    z = np.empty(chars.size + 9, np.uint8)
    z[:8] = z[-1] = 255
    np.subtract(chars, ord("0"), out=z[8:-1])
    digit = z < 10
    # any byte that is neither a digit nor one of the six whitespaces
    if ((chars - 9 >= 5) & (chars != 32) & ~digit[8:-1]).any():
        return None
    ahead = digit[7:]  # ahead[i] for chars[i - 1]
    flips = np.flatnonzero(ahead[1:] != ahead[:-1])
    first, end = flips[0::2], flips[1::2]  # each run's first chars index, and one past its last
    size = end - first
    width = int(size.max(initial=0))
    if width > _PLAIN_DIGITS:
        return None
    # words[i] is the little-endian uint64 of z[i : i + 8], the eight bytes
    # that end at chars[i - 1]
    words = np.ndarray((z.size - 7,), "<u8", z, strides=(1,))
    values = _lane_values(words, end, size if width <= 8 else np.minimum(size, 8))
    for lane in range(1, -(-width // 8)):
        # the eight digits before the lane above, in the runs that reach them
        long = np.flatnonzero(size > 8 * lane)
        more = _lane_values(words, end[long] - 8 * lane, np.minimum(size[long] - 8 * lane, 8))
        values[long] += more * np.uint64(10 ** (8 * lane))
    return values.view(np.int64).astype(np.float64)


def float_chunks(fh: TextIO) -> Iterator[np.ndarray]:
    """Parsed job values in bounded-size chunks, one per block read.

    Tokens are split as str.split() splits them and read with float()
    semantics.  An ASCII block with no decimal point goes to
    _plain_values, which reads it when it is only digit runs and
    whitespace; the "." test keeps real-valued text from paying for that
    scan.  Any other block is split and converted by numpy, and a token it
    refuses is named with its position by _parse_job.
    """
    position = 0
    carry = ""
    while True:
        block = fh.read(_READ_CHARS)
        text, carry = carry + block, ""
        if block and not text[-1].isspace():
            # the last token may go on in the next block
            *head, carry = text.rsplit(None, 1)
            text = head[0] if head else ""
        vals = None
        if text.isascii() and "." not in text:
            vals = _plain_values(text)
        if vals is None:
            toks = text.split()
            try:
                vals = np.array(toks, np.float64)
            except ValueError:
                # only to name the failing position
                for i, tok in enumerate(toks):
                    _parse_job(tok, position + i)
                raise
        if vals.size:
            position += vals.size
            yield vals
        if not block:
            return


# --- schedule output ----------------------------------------------------------


_FILL = 0  # pads fixed-width byte fields; never part of the text
_FRACTION_BITS = 15  # a fraction j / 2**15 is j * 5**15 / 10**15


@functools.cache
def _quad_tables() -> tuple[np.ndarray, ...]:
    """uint32 tables of four ASCII digits in memory order, 20000 entries
    each: entry 10000 + i holds i zero-padded; entry i holds i with its
    leading zeros (integer quads) or trailing zeros (fraction quads) as
    _FILL.  A quad with a nonzero digit further out takes the first kind.
    For 0, the lowest integer quad and the first fraction quad keep one
    '0'; the other tables give four _FILL.

    Returns (lowest integer quad, other integer quads, first fraction
    quad, other fraction quads).  Built on first use, so runs that write
    no schedule do not pay for them.
    """
    digits = np.empty((10000, 4), np.uint8)
    for k in range(4):
        digits[:, k] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - k)), 10**k)
    padded = digits.view(np.uint32).ravel()
    nonzero = digits != ord("0")
    tables = []
    for keep, zero in (
        (np.logical_or.accumulate(nonzero, axis=1), 3),  # past the leading zeros
        (np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1], 0),  # before trailing
    ):
        filled = digits * keep
        for zero_keeps_one in (True, False):
            table = filled.copy()
            table[0, zero] = ord("0") if zero_keeps_one else _FILL
            tables.append(np.concatenate((table.view(np.uint32).ravel(), padded)))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _quad(fields: np.ndarray, at: int) -> np.ndarray:
    """The four bytes of each row of fields from column at, as uint32."""
    return fields[:, at : at + 4].view(np.uint32)[:, 0]


def _put(rows: np.ndarray, at: int, fields: np.ndarray) -> None:
    """rows[:, at:at + w] = fields for a uint8 [n, w] fields, one w-byte
    copy per row."""
    width = fields.shape[1]
    rows[:, at : at + width].view(f"V{width}")[:, 0] = fields.view(f"V{width}")[:, 0]


def _integer_quads(fields: np.ndarray, quads: int, values: np.ndarray) -> None:
    """Write the decimal digits of the non-negative values into the first
    4 * quads columns of fields, leading zeros as _FILL; 0 keeps one '0'.
    A value of more than 4 * quads digits gets a row of clipped digits."""
    lowest, others = _quad_tables()[:2]
    for c in range(quads - 1, 0, -1):
        higher = values // 10000
        index = values - higher * 10000
        index += (higher > 0) * 10000  # a nonzero digit further left
        _quad(fields, 4 * c)[:] = np.take(lowest if c == quads - 1 else others, index)
        values = higher
    _quad(fields, 0)[:] = np.take(lowest if quads == 1 else others, values, mode="clip")


def _integers(values: np.ndarray, width: int) -> np.ndarray:
    """uint8 [n, width]: the decimal digits of the non-negative values,
    each below 10**width, right-aligned with leading zeros as _FILL; 0
    keeps one '0'."""
    quads = -(-width // 4)
    fields = np.empty((values.size, 4 * quads), np.uint8)
    _integer_quads(fields, quads, values)
    return fields[:, 4 * quads - width :]


def _job_ids(rows: np.ndarray, first: int, width: int) -> None:
    """Write the job ids first, first + 1, ... right-aligned into the
    width first columns of rows.

    Past 9999 every id has all four low digits: they cycle through the
    zero-padded quads, and the digits above them change once per 10000
    ids, so they are formatted once per distinct value and repeated.
    """
    n = rows.shape[0]
    if first < 10000:
        _put(rows, 0, _integers(np.arange(first, first + n), width))
        return
    padded = _quad_tables()[0][10000:]
    low = first % 10000
    _quad(rows, width - 4)[:] = np.take(padded, np.arange(low, low + n), mode="wrap")
    high = _integers(np.arange(first // 10000, (first + n - 1) // 10000 + 1), width - 4)
    counts = np.diff(np.concatenate(([0], np.arange(10000 - low, n, 10000), [n])))
    rows[:, : width - 4].view(f"V{width - 4}")[:, 0] = np.repeat(
        high.view(f"V{width - 4}")[:, 0], counts
    )


def _float_fields(values: np.ndarray) -> np.ndarray:
    """uint8 [n, w]: repr of each value, padded with _FILL.

    A value in [1e-4, 1e16) whose fractional part is j / 2**k (k <= 15)
    is written as its exact decimal in int64 digit arithmetic when its
    integer digits and the block's largest k, at least 1, number at most
    15: a decimal of at most 15 significant digits round-trips, and no
    shorter decimal lies within half an ulp of it, so it is repr's
    shortest form.  Other values go through repr.  Each field is a row of
    fixed width whose unused columns hold _FILL.

    The digits are written four at a time from the quad tables: the
    integer part's leading zeros and the fraction's trailing zeros (past
    its k places, since its last place is a 5) come out as _FILL.
    """
    n = values.size
    usual = (values >= 1e-4) & (values < 1e16)
    w = np.where(usual, values, 0.0)
    whole = np.floor(w)
    scaled = (w - whole) * 2.0**_FRACTION_BITS
    j = scaled.astype(np.int64)
    integer = whole.astype(np.int64)
    dyadic = scaled == j
    # the lowest bit of the fractions gives their most binary places, also
    # decimal places; the initial 2**14 stands for 0.5, one place
    low = int(np.bitwise_or.reduce(j, where=dyadic, initial=1 << _FRACTION_BITS - 1))
    f = _FRACTION_BITS + 1 - (low & -low).bit_length()
    exact = usual & dyadic & (integer < 10 ** (_FRACTION_BITS - f))
    inexact = np.flatnonzero(~exact)
    a = len(str(integer.max(where=exact, initial=0)))
    qi, qf = -(-a // 4), -(-f // 4)
    texts = np.array(list(map(repr, values[inexact].tolist())), "S24")
    chars = texts.view(np.uint8).reshape(inexact.size, 24)
    used = int(np.flatnonzero(chars.any(axis=0))[-1]) + 1 if inexact.size else 0
    width = max(a + 1 + f, used)
    lo = 4 * qi - a  # the field's first column
    fields = np.empty((n, max(lo + width, 4 * (qi + qf) + 1)), np.uint8)
    if inexact.size < n:
        _integer_quads(fields, qi, integer)
        fields[:, 4 * qi] = ord(".")
        first, later = _quad_tables()[2:]
        # the fraction in 4 * qf places: j / 2**15 is (j >> 15 - f) * 5**f / 10**f
        digits = (j >> _FRACTION_BITS - f) * (5**f * 10 ** (4 * qf - f))
        further = 0  # 10000 where a nonzero digit lies further right: a quad keeps its zeros
        for c in range(qf - 1, 0, -1):
            higher = digits // 10000
            index = digits - higher * 10000 + further
            _quad(fields, 4 * qi + 1 + 4 * c)[:] = np.take(later, index)
            further, digits = (index > 0) * 10000, higher
        _quad(fields, 4 * qi + 1)[:] = np.take(first, digits + further)
        fields[:, 4 * (qi + qf) + 1 : lo + width] = _FILL
    if inexact.size:
        fields[inexact, lo : lo + used] = chars[:, :used]
        fields[inexact, lo + used : lo + width] = _FILL
    return fields[:, lo : lo + width]


def write_schedule_csv(out: BinaryIO, stage: SecondPass) -> None:
    """Write the schedule CSV to the binary file out, block by block as
    the stage yields them: one row per job in job id order, then a
    trailing makespan row, with CRLF line ends.

    Each completion is formatted once.  A row's start field is the
    completion field of the row above it in the block when the two floats
    have the same bits, as they do for most small jobs, and is formatted
    from the block's start column otherwise.  The rows of every block are
    laid out in one buffer, grown only when a block needs more, so the
    pages it touched once are not faulted in again for the next block.
    """
    m = stage.park.m
    # ",i," for machine i, padded with _FILL to whole 8-byte words
    word_bytes = -(-(len(str(m)) + 2) // 8) * 8
    machines = np.array([f",{i},".encode() for i in range(m + 1)], f"S{word_bytes}")
    machines = machines.view(np.uint64).reshape(m + 1, -1)
    out.write(b"job_id,machine,start,completion\r\n")
    buffer = np.empty(0, np.uint8)
    for block in stage:
        n = block.machine.size
        if not n:
            continue
        # rows whose start is not the row above's completion, bit for bit
        start, done = block.start.view(np.int64), block.completion.view(np.int64)
        fresh = np.flatnonzero(np.concatenate(([True], start[1:] != done[:-1])))
        times = _float_fields(np.concatenate((block.completion, block.start[fresh])))
        # row layout: job_id, ",machine,", start, ",", completion, CRLF
        a = len(str(block.first + n - 1))
        b = a + len(str(m)) + 2
        c = b + times.shape[1]
        d = c + 1 + times.shape[1]
        if buffer.size < n * (d + 2):
            buffer = np.empty(n * (d + 2), np.uint8)
        rows = buffer[: n * (d + 2)].reshape(n, d + 2)
        _job_ids(rows, block.first, a)
        # whole words: the bytes past ",i," spill into the fields written next
        rows[:, a : a + word_bytes].view(np.uint64)[:] = np.take(machines, block.machine, axis=0)
        _put(rows[1:], b, times[: n - 1])
        rows[fresh, b:c] = times[n:]
        rows[:, c] = ord(",")
        _put(rows, c + 1, times[:n])
        rows[:, d : d + 2].view(np.uint16)[:] = np.frombuffer(b"\r\n", np.uint16)
        # rows hold a few _FILL bytes each: bytes.replace drops them faster
        # than a boolean mask does
        out.write(rows.tobytes().replace(bytes([_FILL]), b""))
    out.write(f"makespan,{float(stage.makespan)!r}\r\n".encode())
