"""The ledger's vectorized ingest must leave the band state and the peaks
as the per-job reference in _support leaves them, however the stream is
chunked.  The search must select what enumerating every assignment
selects."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamspan import BudgetExceededError, make_ledger
from streamspan.search import search_assignments

from _support import ordinal, quiet_params, reference_ingest, reference_search


def _params(n_bounded, retain_limit):
    return quiet_params(2, 1, 1.0, 0.5, top_band=n_bounded - 1, retain_limit=retain_limit)


def _run_ingest(chunks, params):
    """(snapshot, retained total, peak retained, peak group records) of a
    ledger fed chunks, as reference_ingest returns them."""
    ledger = make_ledger(params, "pmax-unknown")
    for chunk in chunks:
        ledger.ingest_many(chunk)
    return (ledger.snapshot(), ledger.retained_total, ledger.peak_retained,
            ledger.peak_group_records)


def _random_stream(rng, size, offset, n_bounded):
    # sizes spread over the whole window (k up to n_bounded-1) plus
    # sub-window strays for the open low band
    exps = rng.integers(offset - 2, offset + n_bounded, size=size)
    mant = rng.uniform(0.5000001, 1.0, size=size)
    return np.ldexp(mant, exps + 1).astype(np.float64)


@pytest.mark.parametrize("retain_limit", [1, 2, 3, 16])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ingest_matches_scalar_reference(retain_limit, seed):
    rng = np.random.default_rng(seed)
    offset, n_bounded = -1, 6
    params = _params(n_bounded, retain_limit)
    stream = _random_stream(rng, 700, offset, n_bounded)
    want = reference_ingest(stream, params)
    assert want[0][0] == offset  # the window ends where the stream was drawn
    assert _run_ingest([stream], params) == want


@pytest.mark.parametrize("split", [1, 3, 7, 64, 699, 700])
def test_ingest_is_chunk_invariant(split):
    rng = np.random.default_rng(9)
    offset, n_bounded, retain_limit = 0, 5, 3
    params = _params(n_bounded, retain_limit)
    stream = _random_stream(rng, 700, offset, n_bounded)
    pieces = [stream[i:i + split] for i in range(0, stream.size, split)]
    assert _run_ingest(pieces, params) == reference_ingest(stream, params)


def test_saturation_straddles_chunk_boundaries():
    # retain_limit 3: the third arrival into a band clears it; place that
    # arrival before, at, and after a chunk split
    params = _params(2, 3)
    p = 1.5  # band 0
    q = 3.0  # band 1
    stream = np.array([p, p, q, p, q, p, q])
    want = reference_ingest(stream, params)
    for split in range(1, len(stream)):
        assert _run_ingest([stream[:split], stream[split:]], params) == want


def test_peak_retained_tracks_within_chunk_maximum():
    # fill two bands, then saturate both: the peak happens mid-chunk
    stream = np.array([1.5, 3.0, 1.5, 3.0, 1.5, 3.0, 1.5, 3.0])
    _, retained, peak, _ = _run_ingest([stream], _params(2, 3))
    assert retained == 0  # both bands cleared by their third arrival
    assert peak == 4  # but four jobs were retained at once


def test_block_into_saturated_bands_touches_only_counts():
    # bands 0 and 1 saturate at their third arrival; band 2 keeps one job
    params = _params(3, 3)
    first = [1.5, 3.0, 1.5, 3.0, 1.5, 3.0, 5.0]
    ledger = make_ledger(params, "pmax-unknown")
    ledger.ingest_many(first)
    assert (ledger.retained_total, ledger.band_offset) == (1, 0)
    kept = ledger._ids.tobytes(), ledger._ps.tobytes()
    block = [1.25, 0.5, 3.5, 1.75, 0.25, 2.5]  # bands 0, 1 and the low band
    ledger.ingest_many(block)
    assert (ledger._ids.tobytes(), ledger._ps.tobytes()) == kept
    assert (ledger.snapshot(), ledger.retained_total, ledger.peak_retained) == (
        reference_ingest(first + block, params)[:3])


def _search(job_ps, m, capgrid, x_floor, budget=10**9):
    """search_assignments over a full capacity table: (best_x, the
    selection's ordinal, -1 when nothing fits), as the enumeration reports."""
    best_x, machines, _ = search_assignments(
        job_ps, m, lambda x: capgrid[:, x], x_floor, capgrid.shape[1], budget
    )
    return best_x, -1 if machines is None else ordinal([i + 1 for i in machines], m)


def _reference(job_ps, m, capgrid, x_floor):
    want = reference_search(np.asarray(job_ps, np.float64), m, capgrid, x_floor, m ** len(job_ps))
    return int(want[0]), int(want[1])


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_the_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    njobs = int(rng.integers(0, 6))
    grid_size = int(rng.integers(1, 7))
    job_ps = rng.uniform(0.5, 8.0, size=njobs)
    # nondecreasing capacity rows with distinct shapes per machine
    capgrid = np.cumsum(rng.uniform(0.0, 4.0, size=(m, grid_size)), axis=1)
    x_floor = int(rng.integers(0, grid_size))
    assert _search(job_ps, m, capgrid, x_floor) == _reference(job_ps, m, capgrid, x_floor)


def test_search_reports_infeasible_as_grid_size():
    capgrid = np.array([[1.0, 2.0]])
    job_ps = np.array([10.0])
    assert _reference(job_ps, 1, capgrid, 0) == (2, -1)
    assert _search(job_ps, 1, capgrid, 0) == (2, -1)


def test_search_counts_one_node_per_job_when_the_first_ordinal_fits():
    capgrid = np.full((3, 4), 100.0)
    got = search_assignments([5.0, 7.0, 9.0], 3, lambda x: capgrid[:, x], 1, 4, 3)
    assert got == (1, [0, 0, 0], 3)


def test_search_stops_at_the_node_budget():
    # three 4s on two identical machines: at room 6 the first node leaves
    # too little room for the rest and the second machine mirrors the
    # first; at room 9 the path 4+4+4 fails at its leaf and job 0 moves over
    capgrid = np.array([[6.0, 9.0], [6.0, 9.0]])
    args = ([4.0, 4.0, 4.0], 2, lambda x: capgrid[:, x], 0, 2)
    assert search_assignments(*args, 5) == (1, [1, 0, 0], 5)
    with pytest.raises(BudgetExceededError, match="node budget 4"):
        search_assignments(*args, 4)


def test_search_bounds_integer_rooms_by_subset_sums():
    # even sizes summing to 194 on three machines of room 65: the rooms
    # cover the total, but each machine can reach 64 at most, so nothing
    # fits at x = 0, and only the subset-sum bound sees it before
    # backtracking through the 3**20 assignments
    ps = [10.0, 14, 10, 14, 14, 12, 14, 8, 12, 2, 10, 6, 12, 4, 8, 10, 10, 4, 4, 16]
    rooms = (65.0, 85.0)
    best_x, machines, nodes = search_assignments(ps, 3, lambda x: [rooms[x]] * 3, 0, 2, 40)
    loads = [0.0] * 3
    for i, p in zip(machines, ps):
        loads[i] += p
    assert best_x == 1
    assert max(loads) <= rooms[1]
    assert nodes <= 2 * len(ps)


@pytest.mark.parametrize(
    "ps, room",
    [
        # leaves whose partial sums fit in search order but whose folds in
        # job order do not, two identical machines with equal but differently
        # made loads, and equal sizes that are not neighbours
        ([0.1, 1.1, 0.3, 0.1], 0.3),
        ([0.1, 0.2, 0.7, 0.1, 0.4], 0.7999999999999999),
        ([0.7, 0.3, 0.6, 0.3, 1.1], 1.5999999999999999),
    ],
)
def test_search_judges_real_sizes_by_their_folds_in_job_order(ps, room):
    capgrid = np.array([[room, 3 * room], [room, 3 * room]])
    assert _search(ps, 2, capgrid, 0) == _reference(ps, 2, capgrid, 0)


@st.composite
def search_cases(draw):
    """Small search instances, m**J at most 4096 so the enumeration stays
    quick: equal sizes, tenths whose sums round, real sizes, identical
    machines, and capacities equal to some assignment's loads."""
    m = draw(st.integers(1, 4))
    njobs = draw(st.integers(0, {1: 12, 2: 12, 3: 7, 4: 6}[m]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "tenths", "real", "equal"]))
    if kind == "integers":
        ps = [float(rng.randint(1, 6)) for _ in range(njobs)]
    elif kind == "tenths":
        ps = [rng.randint(1, 30) / 10 for _ in range(njobs)]
    elif kind == "real":
        ps = [rng.uniform(0.5, 8.0) for _ in range(njobs)]
    else:
        ps = [rng.choice([1.0, 0.1, 0.3, 2.5])] * njobs
    grid_size = draw(st.integers(1, 7))
    share = sum(ps) / m
    rows = []
    for i in range(m):
        if i and draw(st.booleans()):
            rows.append(list(rows[rng.randrange(i)]))  # an identical machine
            continue
        row = [rng.uniform(0.1, 0.7) * share]
        for _ in range(grid_size - 1):
            row.append(row[-1] + rng.choice([0.0, rng.uniform(0.0, 0.4) * share]))
        rows.append(row)
    if njobs and draw(st.booleans()):
        # one column holds some assignment's loads summed in job order, or in
        # the search's reverse order: a tie, or a near miss, at the margin
        x = rng.randrange(grid_size)
        loads = [0.0] * m
        for p in ps[:: draw(st.sampled_from([1, -1]))]:
            loads[rng.randrange(m)] += p
        for i in range(m):
            rows[i][x] = loads[i]
            for k in range(1, grid_size):
                rows[i][k] = max(rows[i][k], rows[i][k - 1])
    capgrid = np.array(rows, np.float64).reshape(m, grid_size)
    return ps, m, capgrid, draw(st.integers(0, grid_size - 1))


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
def test_search_matches_the_enumeration_on_small_instances(case):
    ps, m, capgrid, x_floor = case
    assert _search(ps, m, capgrid, x_floor) == _reference(ps, m, capgrid, x_floor)
