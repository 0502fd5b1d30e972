import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamspan import ConfigError, MachinePark, MachineTimeline
from streamspan.capacity import (
    capacity_at,
    completion_chain,
    completions_at,
    park_capacity_at,
    search_bounds,
)

from streamspan.oracle import completion_from_zero

from _support import completion_time, identity_park, prefix_chain


def ramp():
    # rate 1/2 on (0,2], 1 on (2,4], 1 beyond
    return MachineTimeline(1, (2.0, 4.0), (0.5, 1.0))


class TestMachineTimeline:
    def test_cumulative_table(self):
        tl = ramp()
        assert tl.seg_cap[1:].tolist() == [1.0, 3.0]
        assert len(tl.breakpoints) == 2

    def test_never_shared(self):
        tl = MachineTimeline(1, (), ())
        assert tl.seg_cap[1:].size == 0
        assert capacity_at(tl, 7.25) == 7.25

    def test_rejects_nonincreasing_breakpoints(self):
        with pytest.raises(ConfigError, match="breakpoint 2"):
            MachineTimeline(1, (3.0, 3.0), (0.5, 0.5))
        with pytest.raises(ConfigError, match="breakpoint 1"):
            MachineTimeline(1, (0.0,), (0.5,))
        with pytest.raises(ConfigError, match=r"breakpoint 2 \(nan\)"):
            MachineTimeline(1, (2.0, math.nan, 5.0), (0.5, 0.5, 1.0))

    def test_rejects_bad_ratios(self):
        with pytest.raises(ConfigError, match="ratio 1"):
            MachineTimeline(1, (2.0,), (0.0,))
        with pytest.raises(ConfigError, match="ratio 2"):
            MachineTimeline(1, (2.0, 4.0), (0.5, 1.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError, match="2 breakpoints vs 1 ratios"):
            MachineTimeline(1, (2.0, 4.0), (0.5,))

    def test_rejects_bad_index(self):
        with pytest.raises(ConfigError, match="index"):
            MachineTimeline(0, (), ())

    def test_frozen(self):
        tl = ramp()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tl.machine_index = 2


class TestMachinePark:
    def test_properties(self):
        park = MachinePark((ramp(), MachineTimeline(2, (), ())), 1, 0.5)
        assert park.m == 2
        assert [len(tl.breakpoints) for tl in park.machines] == [2, 0]

    def test_floor_contract_names_machine(self):
        with pytest.raises(ConfigError, match="machine 1.*below e0"):
            MachinePark((MachineTimeline(1, (2.0,), (0.25,)),), 1, 0.5)

    def test_machine_order_enforced(self):
        with pytest.raises(ConfigError, match="slot 1"):
            MachinePark((MachineTimeline(2, (), ()),), 1, 1.0)

    def test_scalar_validation(self):
        tl = MachineTimeline(1, (), ())
        with pytest.raises(ConfigError, match="m1"):
            MachinePark((tl,), 2, 1.0)
        with pytest.raises(ConfigError, match="e0"):
            MachinePark((tl,), 1, 0.0)
        with pytest.raises(ConfigError, match="machine"):
            MachinePark((), 1, 1.0)


class TestCapacityAt:
    def test_piecewise_values(self):
        tl = ramp()
        assert capacity_at(tl, 0.0) == 0.0
        assert capacity_at(tl, 1.0) == 0.5
        assert capacity_at(tl, 2.0) == 1.0
        assert capacity_at(tl, 3.0) == 2.0
        assert capacity_at(tl, 4.0) == 3.0
        assert capacity_at(tl, 5.0) == 4.0

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            capacity_at(ramp(), -1.0)

    def test_park_sum_identity_machines(self):
        park = identity_park(2)
        assert park_capacity_at(park, 3.0) == 6.0

    def test_park_sum_mixed(self):
        park = MachinePark((ramp(), MachineTimeline(2, (), ())), 1, 0.5)
        assert park_capacity_at(park, 3.0) == 5.0


class TestCompletionTime:
    def test_zero_amount_is_start(self):
        assert completion_time(ramp(), 1.5, 0.0) == 1.5

    def test_inversion_within_segments(self):
        tl = ramp()
        # 3 units from time 0: 1 by t=2, 2 more at rate 1 -> t=4
        assert completion_time(tl, 0.0, 3.0) == 4.0
        assert completion_time(tl, 0.0, 0.5) == 1.0
        assert completion_time(tl, 2.0, 1.0) == 3.0

    def test_beyond_last_breakpoint(self):
        assert completion_time(ramp(), 0.0, 10.0) == 11.0
        assert completion_time(MachineTimeline(1, (), ()), 2.0, 3.0) == 5.0

    def test_rejects_negative_args(self):
        with pytest.raises(ConfigError):
            completion_chain(ramp(), -1.0, [1.0])


def test_search_bounds():
    park = identity_park(2, m1=1, e0=0.5)
    assert search_bounds(park, 10.0) == (5.0, 20.0)
    with pytest.raises(ConfigError):
        search_bounds(park, -1.0)


# Power-of-two ratios and modest integers keep every capacity expression
# exact, so inversion properties can be asserted with == instead of a
# tolerance.
_exact_timelines = st.builds(
    lambda pairs: MachineTimeline(
        1,
        tuple(float(b) for b, _ in pairs),
        tuple(r for _, r in pairs),
    ),
    st.lists(
        st.tuples(st.integers(1, 60), st.sampled_from([0.25, 0.5, 1.0])),
        max_size=5,
        unique_by=lambda pair: pair[0],
    ).map(lambda ps: sorted(ps)),
)
_quarters = st.integers(0, 240).map(lambda q: q / 4.0)


@settings(max_examples=200)
@given(tl=_exact_timelines, start=_quarters, amount=_quarters)
def test_completion_delivers_exactly_the_amount(tl, start, amount):
    done = completion_time(tl, start, amount)
    assert done >= start
    assert capacity_at(tl, done) - capacity_at(tl, start) == amount


@settings(max_examples=200)
@given(tl=_exact_timelines, start=_quarters, a=_quarters, b=_quarters)
def test_completion_chaining_matches_combined_load(tl, start, a, b):
    # back-to-back jobs end exactly where one merged job would
    step = completion_time(tl, completion_time(tl, start, a), b)
    assert step == completion_time(tl, start, a + b)


_real_timelines = st.builds(
    lambda pairs: MachineTimeline(
        1,
        tuple(b for b, _ in pairs),
        tuple(r for _, r in pairs),
    ),
    st.lists(
        st.tuples(st.floats(0.01, 60.0), st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 1.0])),
        max_size=6,
        unique_by=lambda pair: pair[0],
    ).map(lambda ps: sorted(ps)),
)
_amounts = st.one_of(
    st.floats(1e-3, 30.0), st.sampled_from([5e-324, 1e-300, 1e-15]), _quarters.filter(bool)
)


def _completion_fold(tl, start, amounts):
    out, clock = [], start
    for amount in amounts:
        clock = completion_time(tl, clock, amount)
        out.append(clock)
    return np.array(out, np.float64)


@settings(max_examples=300)
@given(tl=_exact_timelines, start=_quarters, amounts=st.lists(_quarters.filter(bool), max_size=30))
def test_completion_chain_is_the_completion_time_fold(tl, start, amounts):
    # on dyadic inputs A(completion) is exact, so the prefix rule lands
    # where completion_time from each previous completion does
    got = completion_chain(tl, start, amounts)
    assert got.tobytes() == _completion_fold(tl, start, amounts).tobytes()
    assert got.tobytes() == prefix_chain(tl, start, amounts).tobytes()


_amount_kinds = {
    "integer": st.integers(1, 12).map(float),
    "quarter": st.integers(1, 48).map(lambda q: q / 4.0),
    "tenths": st.integers(1, 120).map(lambda q: q / 10.0),
    "real": st.floats(1e-3, 12.0),
    "extreme": _amounts,
}


@settings(max_examples=500, deadline=None)
@given(tl=st.one_of(_exact_timelines, _real_timelines), data=st.data())
def test_completion_chain_is_the_prefix_inversion(tl, data):
    # every job completes where A has delivered A(start) plus the run's
    # prefix load, on streams whose amounts may turn inexact midway, from
    # starts on breakpoints or inside segments, into the rate-1 tail
    head, tail = (data.draw(st.sampled_from(sorted(_amount_kinds))) for _ in range(2))
    amounts = data.draw(st.lists(_amount_kinds[head], max_size=40))
    amounts += data.draw(st.lists(_amount_kinds[tail], max_size=40))
    start = data.draw(
        st.one_of(_quarters, st.floats(0.0, 70.0), st.sampled_from((0.0,) + tl.breakpoints))
    )
    got = completion_chain(tl, start, amounts)
    assert got.dtype == np.float64
    assert got.tobytes() == prefix_chain(tl, start, amounts).tobytes()
    assert (got[1:] >= got[:-1]).all() and (got >= start).all()


@settings(max_examples=300, deadline=None)
@given(tl=st.one_of(_exact_timelines, _real_timelines), data=st.data())
def test_a_chain_continued_piece_by_piece_is_the_whole_chain(tl, data):
    # the run's prefix targets, inverted piece by piece, each piece from the
    # last completion of the one before: the second pass's run carried
    # across chunks
    amounts = data.draw(st.lists(st.one_of(_amount_kinds["real"], _amount_kinds["quarter"]),
                                 max_size=60))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(amounts)), max_size=5)))
    start = data.draw(st.one_of(_quarters, st.sampled_from((0.0,) + tl.breakpoints)))
    targets = np.add.accumulate([capacity_at(tl, start), *amounts])[1:]
    clock, pieces = start, []
    for lo, hi in zip([0, *cuts], [*cuts, len(amounts)]):
        done = completions_at(tl, clock, targets[lo:hi])
        pieces.append(done)
        clock = float(done[-1]) if done.size else clock
    whole = completion_chain(tl, start, amounts)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_chain_tables_are_read_only_float64_arrays():
    tl = ramp()
    columns = ([0.0, 2.0, 4.0], [0.0, 1.0, 3.0], [0.5, 1.0, 1.0])
    for table, column in zip((tl.seg_time, tl.seg_cap, tl.seg_rate), columns):
        assert table.dtype == np.float64 and table.tolist() == column
        with pytest.raises(ValueError):
            table[0] = 1.0


def _dense_timeline():
    rng = random.Random(3)
    bps = sorted(rng.sample(range(1, 4000), 300))
    return MachineTimeline(1, tuple(map(float, bps)), tuple(rng.choice([0.25, 0.5, 1.0]) for _ in bps))


def test_exact_chains_are_the_per_job_fold():
    # with dyadic sizes and ratios A(clock) is exact at every completion,
    # so the prefix rule is the job-by-job fold of one-job chains
    tl = _dense_timeline()
    amounts = [random.Random(5).randint(1, 64) / 4.0 for _ in range(2000)]
    got = completion_chain(tl, 0.5, amounts)
    assert got.tobytes() == _completion_fold(tl, 0.5, amounts).tobytes()
    assert got.tobytes() == prefix_chain(tl, 0.5, amounts).tobytes()


def test_a_chain_that_turns_inexact_keeps_the_prefix_rule():
    tl = _dense_timeline()
    rng = random.Random(2)
    amounts = [2.0] * 1000 + [rng.uniform(0.1, 9.0) for _ in range(1000)]
    got = completion_chain(tl, 0.0, amounts)
    assert got.tobytes() == prefix_chain(tl, 0.0, amounts).tobytes()
    # the exact head is the per-job fold; the inexact tail is not re-rounded
    # at every job, so it drifts from that fold
    fold = _completion_fold(tl, 0.0, amounts)
    assert got[:1000].tobytes() == fold[:1000].tobytes()
    assert (got[1000:] != fold[1000:]).any()


def test_targets_on_the_cumulative_table_take_the_segment_they_end():
    # 1.1 == seg_cap[3] ends segment 2, and inverting it there gives
    # 3.000000000000001, not breakpoint 3.0: bisect_left, not bisect_right
    tl = MachineTimeline(1, (1.0, 2.0, 3.0, 4.5), (0.3, 0.7, 0.1, 1 / 3))
    for target in tl.seg_cap[1:].tolist():
        amounts = [target] + [0.25] * 9  # more keys than table entries
        got = completion_chain(tl, 0.0, amounts)
        assert got.tobytes() == prefix_chain(tl, 0.0, amounts).tobytes()
    assert completion_chain(tl, 0.0, [1.1] * 6)[0] == 3.000000000000001


def test_completions_never_decrease_past_a_cumulative_entry():
    # the first target is seg_cap[1] and inverts to 15.148962555767325;
    # one ulp more lies in segment 1 and inverts to the breakpoint, an ulp
    # earlier, so the running max holds the chain at the first completion
    tl = MachineTimeline(
        1, (15.148962555767323, 24.976174043273883, 44.633088698840595), (0.1, 1.0, 0.1)
    )
    c = float(tl.seg_cap[1])
    ulp = float(np.spacing(c))
    raw = completion_from_zero(tl, np.add.accumulate([c, ulp, ulp]))
    assert raw.tolist() == [15.148962555767325, 15.148962555767323, 15.148962555767323]
    assert completion_chain(tl, 0.0, [c, ulp, ulp]).tolist() == [15.148962555767325] * 3


def _always_held(tl, start, targets):
    """completions_at with its running max run every time: each target
    inverted in the segment it ends, then np.maximum.accumulate."""
    k = np.searchsorted(tl.seg_cap[1:], targets, side="left")
    t = tl.seg_time[k] + (targets - tl.seg_cap[k]) / tl.seg_rate[k]
    if t.size:
        t[0] = max(t[0], start)
    return np.maximum.accumulate(t)


@settings(max_examples=300, deadline=None)
@given(tl=st.one_of(_exact_timelines, _real_timelines), data=st.data())
def test_the_running_max_runs_only_when_it_changes_a_completion(tl, data):
    # targets on the seg_cap entries and one ulp above them are where an
    # inversion can fall an ulp below the one before
    caps = tl.seg_cap.tolist()
    near = caps + [math.nextafter(c, math.inf) for c in caps]
    targets = np.sort(data.draw(st.lists(
        st.one_of(st.sampled_from(near), st.floats(0.0, 2 * caps[-1] + 10.0)), max_size=40)))
    start = data.draw(st.one_of(_quarters, st.sampled_from((0.0,) + tl.breakpoints)))
    got = completions_at(tl, start, targets)
    assert got.tobytes() == _always_held(tl, start, targets).tobytes()


def test_single_completions_are_one_job_chains():
    tl = _dense_timeline()
    rng = random.Random(9)
    clocks = [rng.choice([0.0, rng.uniform(0, 5000), rng.choice(tl.breakpoints)]) for _ in range(500)]
    amounts = [rng.choice([rng.uniform(1e-3, 50), rng.randint(1, 200) / 4.0]) for _ in range(500)]
    got = np.array([completion_time(tl, c, a) for c, a in zip(clocks, amounts)])
    expected = np.concatenate([prefix_chain(tl, c, [a]) for c, a in zip(clocks, amounts)])
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200)
@given(tl=_exact_timelines, t=_quarters, dt=_quarters)
def test_capacity_is_nondecreasing(tl, t, dt):
    assert capacity_at(tl, t + dt) >= capacity_at(tl, t)


def test_boundary_lookups_match_cumulative_table():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 5)
        bps = sorted(rng.sample(range(1, 40), k))
        # inexact ratios too: the table must be the left fold capacity_at ends
        rs = [rng.choice([0.25, 0.5, 1.0, 0.3, 1 / 3]) for _ in range(k)]
        tl = MachineTimeline(1, tuple(map(float, bps)), tuple(rs))
        for i, b in enumerate(tl.breakpoints):
            assert capacity_at(tl, b) == tl.seg_cap[i + 1]
            assert type(capacity_at(tl, b)) is float
