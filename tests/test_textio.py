"""Tests of streamspan.textio: the digit-run parser's lanes and the
schedule CSV formatting."""

import io
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamspan.textio as textio
from streamspan.schedule import ScheduleBlock


def _float_bits(tokens):
    return np.array([float(tok) for tok in tokens], np.float64).tobytes()


def _digit_run(width, rng):
    """A random run of width digits, its first one nonzero."""
    return rng.choice("123456789") + "".join(rng.choice("0123456789") for _ in range(width - 1))


class TestPlainValues:
    """_plain_values reads a run eight digits to a lane: one lane up to 8
    digits, two up to 16, three up to 18.  Each value must be float() of
    its run, bit for bit."""

    @pytest.mark.parametrize("digits", [1, 7, 8, 9, 15, 16, 17, 18])
    def test_runs_of_each_width_read_as_float(self, digits):
        rng = random.Random(digits)
        runs = ["9" * digits, "0" * digits, "1" + "0" * (digits - 1), "0" * (digits - 1) + "7"]
        for _ in range(40):
            zeros = rng.randint(0, digits - 1)  # leading zeros
            runs.append("0" * zeros + "".join(rng.choice("0123456789")
                                              for _ in range(digits - zeros)))
        # after runs of every other width, so a lane's low bytes hold the
        # digits of the run before
        mixed = [run for width in range(1, 19) for run in ("8" * width, _digit_run(width, rng))]
        text = " ".join(mixed + runs)
        assert textio._plain_values(text).tobytes() == _float_bits(mixed + runs)

    @pytest.mark.parametrize("space", list(" \t\n\x0b\x0c\r"))
    def test_each_whitespace_byte_separates_runs(self, space):
        runs = ["12345678", "9", "123456789012345678", "0042", "99999999999999999"]
        for text in (space.join(runs), space + space.join(runs) + space * 2):
            assert textio._plain_values(text).tobytes() == _float_bits(runs)

    def test_runs_at_the_first_and_last_byte_of_a_block(self, monkeypatch):
        # blocks start with the token carried from the block before and end
        # before the token carried to the next, so small blocks put runs of
        # every width at both edges
        texts = []  # every text the parser was given
        plain = textio._plain_values
        monkeypatch.setattr(textio, "_plain_values", lambda text: texts.append(text) or plain(text))
        rng = random.Random(11)
        tokens = [_digit_run(rng.randint(1, 18), rng) for _ in range(300)]
        stream = "".join(tok + rng.choice(" \t\n\x0b\x0c\r") for tok in tokens)
        for read_chars in (1, 5, 19, 24, 64):
            monkeypatch.setattr(textio, "_READ_CHARS", read_chars)
            values = np.concatenate(list(textio.float_chunks(io.StringIO(stream))))
            assert values.tobytes() == _float_bits(tokens)
        widths = range(1, 19)
        assert {len(text.split()[0]) for text in texts if text[:1].isdigit()} >= set(widths)
        assert {len(text.split()[-1]) for text in texts if text[-1:].isdigit()} >= set(widths)

    def test_a_run_of_19_digits_falls_back(self):
        text = "7 1234567890123456789 00000000000000000001 3"
        assert textio._plain_values(text) is None
        (values,) = list(textio.float_chunks(io.StringIO(text + "\n")))
        assert values.tobytes() == _float_bits(text.split())


def _formatted(values):
    """Each value as the schedule CSV's float formatter writes it."""
    fields = textio._float_fields(np.array(values, np.float64))
    return [row[row != textio._FILL].tobytes().decode() for row in fields]


FORMAT_EDGES = (
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 1e16,
    math.nextafter(1e16, 0.0), 2.0**53, 2.0**53 + 2, 2.0**53 - 1, 0.0, -0.0, 5e-324,
    1e15, 999999999999999.0, 123456789012345.5, 0.5, 0.25, 0.0001220703125,
    2.0**-15, 2.0**-16, 1.5 + 2.0**-14, 0.1, 0.3, 1.1, 1e-5, 123.0, math.inf, -math.inf,
    math.nan, -1.25, 1e300, 2.2250738585072014e-308, -2.2250738585072014e-308,
)


class TestFloatFields:
    def test_edges_match_repr(self):
        assert _formatted(FORMAT_EDGES) == [repr(v) for v in FORMAT_EDGES]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(1e-4, 1e16),
                st.integers(0, 2**56).map(lambda q: q / 4.0),
                st.integers(0, 10**12).map(lambda q: q * 0.1),
                st.builds(lambda i, k: i / 2.0**k, st.integers(0, 2**53), st.integers(0, 60)),
                st.sampled_from(FORMAT_EDGES),
            ),
            max_size=40,
        ),
        st.integers(1, 8),
    )
    @example([0.25, 0.1, 3.0, 2.0**53], 1)
    # 1-place fractions among 5-, 9-, 13- and 15-place ones: the zeros inside
    # a wide fraction stay and each value's trailing ones drop
    @example([0.5, 0.03125, 0.5 + 2.0**-9, 0.5 + 2.0**-15, 0.75, 2.0**-13, 3.0 + 2.0**-15], 8)
    @example([0.5, 12.03125, 100.001953125, 7.0, 0.0625, 0.5 + 2.0**-9], 8)
    # dyadic values with one 0.1, which alone goes through repr
    @example([0.25, 1.5, 2.75, 0.1, 1024.125, 3.0, 96.5], 8)
    # whole numbers of 1 to 11 digits
    @example([float(10**k + k) for k in range(11)], 11)
    def test_fields_match_repr(self, values, rows):
        # formatted in blocks of `rows` values, as the writer formats a
        # block's fields, so blocks of differing widths are compared too
        pieces = [values[i : i + rows] for i in range(0, len(values), rows)]
        assert [text for piece in pieces for text in _formatted(piece)] == [
            repr(float(v)) for v in values
        ]


def test_job_ids_match_their_decimal_text():
    # ids from any first id on, across boundaries of 10**4 and 10**k
    for first, n in ((0, 12), (9995, 10), (10**4, 3), (12345, 20007), (99990, 20),
                     (10**8 - 5, 9)):
        width = len(str(first + n - 1))
        rows = np.zeros((n, width), np.uint8)
        textio._job_ids(rows, first, width)
        assert [row[row != textio._FILL].tobytes().decode() for row in rows] == [
            str(i) for i in range(first, first + n)
        ]


class _Stage:
    """What write_schedule_csv reads of a SecondPass: the park's machine
    count, the blocks, then the makespan."""

    def __init__(self, m, blocks, makespan):
        self.park = SimpleNamespace(m=m)
        self.blocks, self.makespan = blocks, makespan

    def __iter__(self):
        return iter(self.blocks)


def test_blocks_that_shrink_and_grow_write_the_bytes_of_one_block():
    # every block's rows are laid out in one buffer that only grows, so a
    # byte a smaller block left unwritten would show the larger one's text
    rng = np.random.default_rng(5)
    sizes = (5, 70_000, 3, 20_000)
    n = sum(sizes)
    completion = np.cumsum(rng.integers(1, 64, n) / 8.0)
    completion[rng.random(n) < 0.1] *= 0.37  # real-valued fields, wider than the dyadic ones
    start = np.concatenate(([0.0], completion[:-1]))
    start[rng.random(n) < 0.05] += 0.5  # starts that are not the row above's completion
    machine = rng.integers(1, 4, n)
    cuts = np.cumsum((0,) + sizes)
    blocks = [
        ScheduleBlock(int(lo), machine[lo:hi], start[lo:hi], completion[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    written = []
    for parts in ([ScheduleBlock(0, machine, start, completion)], blocks):
        out = io.BytesIO()
        textio.write_schedule_csv(out, _Stage(3, parts, float(completion.max())))
        written.append(out.getvalue())
    assert written[0].count(b"\r\n") == n + 2
    assert written[1] == written[0]
