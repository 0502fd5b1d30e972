import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamspan import ConfigError, JobValueError, PmaxContractError, derive_params, make_ledger
from streamspan.grouping import _ceil_log2s
from streamspan.oracle import group_index, replay_grouping

from _support import quiet_params, reference_ingest


class TestCeilLog2:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (1.0, 0),
            (2.0, 1),
            (3.0, 2),
            (8.0, 3),
            (10.0, 4),
            (0.5, -1),
            (0.75, 0),
            (2.0**-10, -10),
            (float(2**40 + 1), 41),
        ],
    )
    def test_values(self, p, expected):
        assert _ceil_log2s(np.array([p])).tolist() == [expected]

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_defining_inequality(self, p):
        g = int(_ceil_log2s(np.array([p]))[0])
        assert math.ldexp(1.0, g) >= p
        assert math.ldexp(1.0, g - 1) < p


class TestGroupIndex:
    def test_banding_at_offset_minus_one(self):
        assert group_index(0.5, -1) == -1  # at the low edge
        assert group_index(0.6, -1) == 0
        assert group_index(1.0, -1) == 0  # band upper edge included
        assert group_index(1.5, -1) == 1
        assert group_index(2.0, -1) == 1

    @given(
        p=st.floats(min_value=1e-6, max_value=1e6),
        offset=st.integers(-30, 30),
    )
    def test_band_edges(self, p, offset):
        k = group_index(p, offset)
        if k == -1:
            assert p <= math.ldexp(1.0, offset)
        else:
            assert math.ldexp(1.0, offset + k) < p <= math.ldexp(1.0, offset + k + 1)


class TestDeriveParams:
    @pytest.mark.parametrize(
        "m, m1, e0, eps, top_band, retain_limit",
        [
            (2, 1, 1.0, 1.0, 2, 16),
            (3, 2, 0.5, 0.5, 4, 96),
            (2, 2, 0.5, 0.5, 4, 48),
        ],
    )
    def test_frozen_values(self, m, m1, e0, eps, top_band, retain_limit):
        params = quiet_params(m, m1, e0, eps)
        assert params.top_band == top_band
        assert params.retain_limit == retain_limit
        assert params.bounded_bands == top_band + 1

    @settings(max_examples=200)
    @given(
        m=st.integers(1, 6),
        m1_frac=st.integers(1, 6),
        e0=st.sampled_from([0.25, 0.5, 1.0]),
        eps=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_band_count_is_minimal(self, m, m1_frac, e0, eps):
        m1 = min(m1_frac, m)
        params = quiet_params(m, m1, e0, eps)
        # power-of-two inputs make the float derivation exact, so the
        # rational recomputation must agree
        need = -(-Fraction(m + m1 - 1) // (Fraction(eps) / 2 * m1 * Fraction(e0)))
        assert 2**params.top_band >= need
        assert params.top_band == 0 or 2 ** (params.top_band - 1) < need
        assert params.retain_limit == -(
            -Fraction(m * (m + m1 - 1)) // (Fraction(eps) / 4 * Fraction(e0) * m1)
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            derive_params(0, 1, 1.0, 0.5)
        with pytest.raises(ConfigError):
            derive_params(2, 3, 1.0, 0.5)
        with pytest.raises(ConfigError):
            derive_params(2, 0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            derive_params(2, 1, 1.5, 0.5)
        with pytest.raises(ConfigError):
            derive_params(2, 1, 1.0, 0.0)

    def test_wide_epsilon_warns(self):
        with pytest.warns(RuntimeWarning, match="epsilon"):
            derive_params(2, 1, 1.0, 1.0)

    def test_a_huge_epsilon_keeps_one_band_and_one_slot(self):
        # (epsilon / 2) * m1 * e0 overflows to inf at 1e308 on 8 floor
        # machines, so both quotients are 0; 1e307 stays finite
        with pytest.warns(RuntimeWarning, match="epsilon"):
            huge = derive_params(8, 8, 1.0, 1e308)
            finite = derive_params(8, 8, 1.0, 1e307)
        assert (huge.top_band, huge.retain_limit) == (finite.top_band, finite.retain_limit) == (0, 1)

    def test_the_band_parameters_are_always_derived(self):
        for arg in ("top_band_override", "retain_limit_override"):
            with pytest.raises(TypeError):
                derive_params(2, 1, 1.0, 0.5, **{arg: 3})


@pytest.fixture
def params_small():
    # m=2, m1=1, e0=1, eps=1 -> top_band 2, retain_limit 16
    return quiet_params(2, 1, 1.0, 1.0)


@pytest.fixture
def params_tight():
    # tiny retain limit to trigger saturation with few jobs
    return quiet_params(2, 1, 1.0, 1.0, retain_limit=4)


class TestKnownPmaxLedger:
    def test_single_small_and_single_large(self, params_small):
        led = make_ledger(params_small, pmax=100.0)
        led.ingest_many([1.0])
        led.ingest_many([100.0])
        # the window tops out at ceil_log2(100)=7: bands (16,32],(32,64],(64,128]
        assert led.snapshot() == (4, 1, ((7, 1, ((1, 100.0),)),))
        assert led.total_load == 101.0
        assert led.max_seen == 100.0

    def test_order_swap_changes_only_ids(self, params_small):
        led = make_ledger(params_small, pmax=100.0)
        led.ingest_many(np.array([100.0, 1.0]))
        assert led.snapshot() == (4, 1, ((7, 1, ((0, 100.0),)),))

    def test_empty(self, params_small):
        led = make_ledger(params_small, pmax=8.0)
        assert led.snapshot() == (None, 0, ())
        large = led.finalize()
        assert large.job_count == 0
        assert large.total_load == 0.0
        assert large.band_offset is None

    def test_rejects_bad_pmax(self, params_small):
        with pytest.raises(ConfigError):
            make_ledger(params_small, pmax=0.0)
        with pytest.raises(ConfigError):
            make_ledger(params_small, pmax=math.inf)

    def test_pmax_contract(self, params_small):
        led = make_ledger(params_small, pmax=8.0)
        led.ingest_many([8.0])
        with pytest.raises(PmaxContractError, match="position 1"):
            led.ingest_many([8.5])
        led2 = make_ledger(params_small, pmax=8.0)
        with pytest.raises(PmaxContractError, match="position 2") as exc:
            led2.ingest_many(np.array([1.0, 2.0, 9.0, 1.0]))
        assert exc.value.position == 2
        # a declared p_max above the band of the stream's maximum is an upper bound
        led3 = make_ledger(params_small, pmax=16.0)
        led3.ingest_many([8.0])
        unknown = make_ledger(params_small)
        unknown.ingest_many([8.0])
        assert led3.snapshot() == unknown.snapshot()
        assert led3.finalize() == unknown.finalize()

    def test_rejects_bad_values(self, params_small):
        led = make_ledger(params_small, pmax=8.0)
        led.ingest_many([1.0])
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(JobValueError, match="position 1"):
                led.ingest_many([bad])
        with pytest.raises(JobValueError) as exc:
            led.ingest_many(np.array([2.0, -1.0]))
        assert exc.value.position == 2

    def test_chunked_equals_streamed(self, params_small):
        rng = np.random.default_rng(3)
        jobs = rng.integers(1, 100, size=500).astype(np.float64)
        a = make_ledger(params_small, pmax=100.0)
        a.ingest_many(jobs)
        b = make_ledger(params_small, pmax=100.0)
        for p in jobs:
            b.ingest_many([float(p)])
        assert a.snapshot() == b.snapshot()
        assert a.total_load == b.total_load
        assert a.peak_retained == b.peak_retained

    def test_retention_resets_at_limit_for_good(self, params_tight):
        led = make_ledger(params_tight, pmax=8.0)
        for _ in range(3):
            led.ingest_many([8.0])
        assert led.snapshot()[2] == ((3, 3, ((0, 8.0), (1, 8.0), (2, 8.0))),)
        led.ingest_many([8.0])  # fourth arrival reaches the limit
        assert led.snapshot()[2] == ((3, 4, ()),)
        led.ingest_many([8.0])  # and the band never retains again
        assert led.snapshot()[2] == ((3, 5, ()),)

    def test_finalize_saturation_and_small_bound(self, params_tight):
        led = make_ledger(params_tight, pmax=8.0)
        # saturate band 0 (sizes in (1,2]), keep band 2 (sizes in (4,8]) alive
        led.ingest_many(np.array([2.0, 2.0, 2.0, 2.0, 8.0, 7.0]))
        large = led.finalize()
        assert large.saturated_band == 0
        assert large.jobs == ((4, 8.0), (5, 7.0))
        assert large.small_bound == 2.0
        assert large.band_offset == 0
        assert large.total_load == 23.0

    def test_unsaturated_finalize_keeps_band_order(self, params_small):
        led = make_ledger(params_small, pmax=8.0)
        led.ingest_many(np.array([8.0, 1.5, 3.0]))
        large = led.finalize()
        # bands ascend: (1,2] then (2,4] then (4,8]
        assert large.saturated_band == -1
        assert large.jobs == ((1, 1.5), (2, 3.0), (0, 8.0))
        assert large.small_bound == 1.0  # 2^offset with offset 0


class TestEstimatePmaxLedger:
    """A declared maximum that overestimates the stream's is an upper bound:
    inside the band of the maximum or past it, it reports as the exact one."""

    def test_exact_estimate_matches_known(self, params_small):
        jobs = np.array([10.0, 1.0, 6.0, 2.5, 10.0])
        known = make_ledger(params_small, pmax=10.0)
        known.ingest_many(jobs)
        est = make_ledger(params_small, pmax=16.0)  # the top of 10's band (8, 16]
        est.ingest_many(jobs)
        assert est.snapshot() == known.snapshot()
        assert est.finalize() == known.finalize()

    def test_overestimate_reanchors(self, params_small):
        # declared 16, true max 10, first job 3: the window is placed by the
        # first job, not the declared value, and tops out at the true maximum
        est = make_ledger(params_small, pmax=16.0)
        assert est.band_offset is None
        est.ingest_many([3.0])
        assert est.band_offset == 2 - params_small.bounded_bands  # 3.0 in (2, 4]
        jobs = np.array([10.0, 1.7, 5.0, 2.0])
        est.ingest_many(jobs)
        unknown = make_ledger(params_small)
        unknown.ingest_many(np.concatenate(([3.0], jobs)))
        assert est.snapshot() == unknown.snapshot()
        assert est.band_offset == 4 - params_small.bounded_bands  # 10.0 in (8, 16]

    def test_reanchor_folds_sunk_bands(self, params_small):
        # declared 80, arriving last: the window starts at the first job's
        # band and rises with 5.0 and 80.0, folding the bands that sink
        est = make_ledger(params_small, pmax=80.0)
        jobs = np.array([3.0, 1.7, 5.0, 2.0, 80.0])
        est.ingest_many(jobs)
        unknown = make_ledger(params_small)
        unknown.ingest_many(jobs)
        assert est.snapshot() == unknown.snapshot() == (4, 4, ((7, 1, ((4, 80.0),)),))

    def test_estimate_contract_violations(self, params_small):
        est = make_ledger(params_small, pmax=8.0)
        with pytest.raises(PmaxContractError, match="position 0"):
            est.ingest_many([8.5])  # above the declared maximum
        # stream max far below the declared maximum: the window follows the stream
        est2 = make_ledger(params_small, pmax=80.0)
        est2.ingest_many([1.0])
        unknown = make_ledger(params_small)
        unknown.ingest_many([1.0])
        assert est2.snapshot() == unknown.snapshot() == (-3, 0, ((0, 1, ((0, 1.0),)),))
        assert est2.finalize() == unknown.finalize()

    def test_validation(self, params_small):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="p_max must be finite and > 0"):
                make_ledger(params_small, pmax=bad)

    def test_memory_properties_widened(self, params_small):
        # a declared maximum widens and narrows nothing: the unknown maximum's bounds
        est = make_ledger(params_small, pmax=80.0)
        unknown = make_ledger(params_small)
        assert est.group_record_bound == unknown.group_record_bound == params_small.bounded_bands + 1
        assert est.retained_bound == unknown.retained_bound == (
            params_small.bounded_bands * params_small.retain_limit)


class TestUnknownPmaxLedger:
    def test_first_job_anchors(self, params_small):
        led = make_ledger(params_small)
        led.ingest_many([1.0])
        assert led.band_offset == -3
        assert led.snapshot() == (-3, 0, ((0, 1, ((0, 1.0),)),))

    def test_growth_rebases_and_folds(self, params_small):
        led = make_ledger(params_small)
        led.ingest_many([1.0])
        led.ingest_many([100.0])
        known = make_ledger(params_small, pmax=100.0)
        known.ingest_many(np.array([1.0, 100.0]))
        assert led.snapshot() == known.snapshot()
        assert led.band_offset == 4

    def test_matches_known_on_every_prefix(self, params_small):
        rng = np.random.default_rng(11)
        jobs = rng.integers(1, 2000, size=120).astype(np.float64)
        led = make_ledger(params_small)
        for i, p in enumerate(jobs, start=1):
            led.ingest_many([float(p)])
            fresh = make_ledger(params_small, pmax=float(jobs[:i].max()))
            fresh.ingest_many(jobs[:i])
            assert led.snapshot() == fresh.snapshot()
            assert led.total_load == fresh.total_load

    @pytest.mark.parametrize("saturating", [False, True])
    @pytest.mark.parametrize("size", [1, 5])
    def test_a_rebase_reads_and_writes_only_retained_prefixes(self, params_small, params_tight,
                                                              saturating, size):
        # every list entry past retained_total holds poison, refilled after
        # each chunk: a rebase or a filling band that reads one changes the
        # result.  One job per chunk rebases or fills before it appends, so
        # no entry past those the ledger keeps is written
        params = params_tight if saturating else params_small
        jobs = np.repeat(1.3 ** np.arange(40), 2)  # rising: about 11 rebases
        clean, dirty = make_ledger(params), make_ledger(params)
        for i in range(0, jobs.size, size):
            before = dirty.retained_total
            dirty._ids[before:] = -1
            dirty._ps[before:] = np.nan
            clean.ingest_many(jobs[i:i + size])
            dirty.ingest_many(jobs[i:i + size])
            past = max(before, dirty.retained_total)
            assert size > 1 or (
                (dirty._ids[past:] == -1).all() and np.isnan(dirty._ps[past:]).all())
        assert dirty.snapshot() == clean.snapshot()
        assert dirty.finalize() == clean.finalize()
        assert (dirty.retained_total, dirty.peak_retained, dirty.peak_group_records) == (
            clean.retained_total, clean.peak_retained, clean.peak_group_records)
        assert (clean.finalize().saturated_band >= 0) == saturating

    def test_bounds_hold_throughout(self, params_tight):
        rng = np.random.default_rng(5)
        led = make_ledger(params_tight)
        for p in rng.integers(1, 5000, size=400):
            led.ingest_many([float(p)])
            assert led.retained_total <= led.retained_bound
            assert led.peak_group_records <= led.group_record_bound
        assert led.peak_retained <= led.retained_bound

    def test_rejects_bad_values(self, params_small):
        for bad in (0.0, -1.0, -2.0, math.inf, math.nan):  # not finite and > 0
            led = make_ledger(params_small)
            with pytest.raises(JobValueError, match="position 0"):
                led.ingest_many([bad])

    def test_rejects_an_overflowing_total(self, params_small):
        led = make_ledger(params_small)
        led.ingest_many(np.array([5e307, 5e307, 5e307]))  # near the float range, finite
        assert math.isfinite(led.total_load)
        with pytest.raises(JobValueError, match="position 4") as exc:
            led.ingest_many(np.array([1.0, 5e307, 1.0]))
        assert exc.value.position == 4
        assert led.job_count == 3  # the rejected chunk is not accounted


@settings(max_examples=100, deadline=None)
@given(
    jobs=st.lists(st.integers(1, 4000), min_size=1, max_size=60),
    retain_limit=st.integers(1, 5),
    chunk=st.sampled_from([1, 7, None]),
)
def test_all_ledgers_agree_with_replay(jobs, retain_limit, chunk):
    params = quiet_params(2, 1, 1.0, 1.0, retain_limit=retain_limit)
    arr = np.array(jobs, np.float64)
    pmax = float(arr.max())
    # chunk None feeds the whole stream at once; 1 and 7 put window rebases
    # on chunk boundaries and inside chunks
    step = chunk or arr.size

    known = make_ledger(params, pmax=pmax)
    unknown = make_ledger(params)
    for ledger in (known, unknown):
        for lo in range(0, arr.size, step):
            ledger.ingest_many(arr[lo:lo + step])

    # the replay's band loads have no counterpart in the ledgers
    offset, low_count, _, entries = replay_grouping(jobs, params, p_max=pmax)
    expected = (offset, low_count, tuple((top, c, kept) for top, c, _, kept in entries))
    assert known.snapshot() == expected
    assert unknown.snapshot() == expected

    assert known.peak_retained <= known.retained_bound
    assert known.finalize() == unknown.finalize()


@settings(max_examples=100, deadline=None)
@given(
    jobs=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=80),
    retain_limit=st.integers(1, 5),
    chunk=st.sampled_from([1, 7, None]),
)
# three bands and the low band fill, then one job sinks them all: the
# record peak lies before the rebase
@example(jobs=[0.7, 0.1, 0.2, 0.35, 100.0], retain_limit=5, chunk=None)
def test_unknown_ledger_matches_a_per_job_rebasing_replay(jobs, retain_limit, chunk):
    params = quiet_params(2, 1, 1.0, 1.0, retain_limit=retain_limit)
    arr = np.array(jobs, np.float64)
    step = chunk or arr.size
    ledger = make_ledger(params)
    for lo in range(0, arr.size, step):
        ledger.ingest_many(arr[lo:lo + step])
    want = reference_ingest(jobs, params)
    assert (ledger.snapshot(), ledger.retained_total, ledger.peak_retained,
            ledger.peak_group_records) == want


@pytest.mark.parametrize("retain_limit", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 3])
def test_the_top_band_below_2_to_the_1024_fills_and_retains(retain_limit, chunk):
    # 2^1024 is past the largest float: the band of 1.7e308 has no finite
    # upper edge, and at retain_limit 1 its first arrival fills it
    params = quiet_params(2, 1, 1.0, 1.0, retain_limit=retain_limit)
    jobs = [3.0, 1.7e308, 5.0]
    ledger = make_ledger(params)
    for lo in range(0, len(jobs), chunk):
        ledger.ingest_many(jobs[lo:lo + chunk])
    assert ledger.band_offset == 1024 - params.bounded_bands
    assert (ledger.snapshot(), ledger.retained_total, ledger.peak_retained,
            ledger.peak_group_records) == reference_ingest(jobs, params)
    large = ledger.finalize()
    if retain_limit == 1:  # every job is small, and no float bounds them
        assert (large.saturated_band, large.jobs, large.small_bound) == (
            params.top_band, (), math.inf)
    else:
        assert large.jobs == ((1, 1.7e308),)
        assert large.small_bound == 2.0**large.band_offset
