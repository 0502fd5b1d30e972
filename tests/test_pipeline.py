import dataclasses
import functools
import io
import math
import operator
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamspan import (
    ConfigError,
    RunReport,
    StreamspanError,
    make_ledger,
    run_stream,
    second_pass,
)
from streamspan.cli import MODES, generate_instance, main, write_schedule_csv
from streamspan.grouping import ceil_log2
from streamspan.schedule import SecondPass

from _support import identity_park, make_instance, quiet_params


def _masked(report):
    return {
        k: v
        for k, v in dataclasses.asdict(report).items()
        if not k.endswith("_seconds")
    }


class TestMakeLedger:
    def setup_method(self):
        self.params = quiet_params(2, 1, 1.0, 1.0)

    def test_each_regime_builds_its_ledger(self):
        # the regime is read off the declared maximum
        given = make_ledger(self.params, pmax=4.0)
        unknown = make_ledger(self.params)
        assert [led.regime for led in (given, unknown)] == ["pmax-given", "pmax-unknown"]
        # one window either way, placed by the first job
        assert (given.band_offset, unknown.band_offset) == (None, None)

    def _run_argv(self, tmp_path, *flags):
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text("m 2\nm1 1\ne0 1\nmachine 1\nmachine 2\n")
        jobs.write_text("1 2\n")
        return ["run", "--config", str(cfg), "--jobs", str(jobs), *flags]

    def test_missing_pmax_names_the_flag(self, capsys, tmp_path):
        # the command line pairs --regime with --pmax; the library reads only pmax
        assert main(self._run_argv(tmp_path, "--regime", "pmax-given")) == 2
        assert "regime pmax-given needs a largest processing time (--pmax)" in (
            capsys.readouterr().err)

    def test_unknown_regime_lists_the_choices(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(self._run_argv(tmp_path, "--regime", "pmax-estimate", "--pmax", "8"))
        assert exc_info.value.code == 2
        assert re.search(r"invalid choice: 'pmax-estimate' \(choose from .*pmax-given.*pmax-unknown",
                         capsys.readouterr().err)


class TestRunStream:
    def _instance(self, seed=11):
        park, jobs = make_instance(seed, 2, 1, 0.5, 6)
        params = quiet_params(2, 1, 0.5, 0.5)
        return park, params, jobs

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        m1=st.integers(1, 3),
        e0=st.sampled_from([0.25, 0.5, 1.0]),
        epsilon=st.sampled_from([0.3, 0.5, 0.9]),
        n=st.integers(1, 300),
        jobs_max=st.sampled_from([16, 1024]),
        scale=st.sampled_from([1.0, 0.37]),
        retain_limit=st.sampled_from([None, 2, 3, 5]),
        regime=st.sampled_from(["pmax-given", "pmax-unknown"]),
    )
    def test_chunking_does_not_change_the_report(
        self, seed, m, m1, e0, epsilon, n, jobs_max, scale, retain_limit, regime
    ):
        """Reports (timings masked), schedule columns and the schedule CSV's
        bytes are the same whatever the chunk size, in every regime, with
        and without saturated bands; a run that fails, fails alike."""
        if retain_limit is None:
            n = min(n, 10)  # every job may stay large: keep the search small
        m1 = min(m1, m)
        park, _ = make_instance(seed, m, m1, e0, 0)
        # sizes skewed small, so low bands saturate under sparse high ones
        jobs = np.ceil(jobs_max ** np.random.default_rng(seed).random(n) ** 2) * scale
        params = quiet_params(m, m1, e0, epsilon, retain_limit=retain_limit)
        pmax = float(jobs.max())
        outcomes = []
        for size in (1, 7, 65536):
            chunks = [jobs[i:i + size] for i in range(0, n, size)]
            ledger = make_ledger(params, pmax if regime == "pmax-given" else None)
            try:
                report, artifacts = run_stream(park, ledger, chunks, mode="two-pass")
                csv = io.BytesIO()
                write_schedule_csv(csv, SecondPass(park, artifacts))
                outcomes.append((_masked(report), second_pass(park, artifacts),
                                 csv.getvalue()))
            except StreamspanError as exc:
                outcomes.append((type(exc), str(exc)))
            # the ledger's own figures are the plain left fold, max and count
            assert ledger.total_load == functools.reduce(operator.add, jobs.tolist(), 0.0)
            assert ledger.max_seen == max(jobs.tolist())
            assert ledger.job_count == len(jobs)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 16),
        m1=st.integers(1, 16),
        e0=st.sampled_from([0.25, 0.5, 1.0]),
        epsilon=st.sampled_from([0.05, 0.3, 0.5, 0.9]),
        n=st.integers(1, 300),
        jobs_max=st.sampled_from([16, 1024]),
        family=st.sampled_from(["integer", "scaled", "ascending"]),
        retain_limit=st.sampled_from([None, 2, 3, 5]),
        size=st.sampled_from([1, 7, 65536]),
        inside=st.floats(0.0, 1.0),
    )
    def test_every_regime_reports_what_the_unknown_one_does(
        self, seed, m, m1, e0, epsilon, n, jobs_max, family, retain_limit, size, inside,
    ):
        """One window serves both regimes: a run whose declared maximum keeps
        its contract reports what the pmax-unknown run does, `regime` and
        timings masked, and writes the same schedule bytes.  The declared
        value sits anywhere in the maximum's band."""
        if retain_limit is None:
            n = min(n, 8)  # every job may stay large: keep the search small
        if epsilon == 0.05:
            m, n = min(m, 4), min(n, 40)
        m1 = min(m1, m)
        park, _ = make_instance(seed, m, m1, e0, 0)
        jobs = np.ceil(jobs_max ** np.random.default_rng(seed).random(n) ** 2)
        if family == "scaled":
            jobs *= 0.37
        elif family == "ascending":  # the maximum arrives last
            jobs.sort()
        params = quiet_params(m, m1, e0, epsilon, retain_limit=retain_limit)
        pmax = float(jobs.max())
        top = math.ldexp(1.0, ceil_log2(pmax))
        in_band = pmax + inside * (top - pmax)  # in [pmax, top]: the maximum's band
        chunks = [jobs[i:i + size] for i in range(0, n, size)]
        outcomes = []
        for regime, declared in [("pmax-unknown", None), ("pmax-given", pmax),
                                 ("pmax-given", in_band)]:
            ledger = make_ledger(params, declared)
            try:
                report, artifacts = run_stream(park, ledger, chunks, mode="two-pass",
                                               budget=20000)
                csv = io.BytesIO()
                write_schedule_csv(csv, SecondPass(park, artifacts))
                masked = _masked(report)
                assert masked.pop("regime") == regime
                outcomes.append((masked, csv.getvalue()))
            except StreamspanError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[1:] == outcomes[:1] * 2

    def test_artifacts_describe_the_pass(self):
        park, params, jobs = self._instance()
        ledger = make_ledger(params, pmax=max(jobs))
        report, art = run_stream(park, ledger, [jobs])
        assert art.spill is None  # a one-pass run, the default
        assert len({j for j, _ in art.outcome.jobs}) == report.search_jobs
        assert art.outcome.value == report.value

    def test_empty_stream_reports_zero(self):
        park, params, _ = self._instance()
        ledger = make_ledger(params)
        report, art = run_stream(park, ledger, [])
        assert report.value == 0.0
        assert report.selected_t == 0.0
        assert report.job_count == 0
        assert report.search_jobs == 0
        assert report.mean_ingest_seconds == 0.0
        assert art.outcome.jobs == ()

    def test_parse_time_is_the_chunk_iterators(self):
        park, params, jobs = self._instance()

        def slow_chunks():
            for chunk in (jobs[:3], jobs[3:]):
                time.sleep(0.02)
                yield chunk

        ledger = make_ledger(params, pmax=max(jobs))
        report, _ = run_stream(park, ledger, slow_chunks())
        assert report.parse_seconds >= 0.04
        stages = report.parse_seconds + report.ingest_seconds + report.search_seconds
        assert stages <= report.wall_seconds

    def test_machine_count_mismatch_is_rejected(self):
        park, _, jobs = self._instance()
        wrong = quiet_params(3, 1, 0.5, 0.5)
        ledger = make_ledger(wrong, pmax=max(jobs))
        with pytest.raises(ConfigError, match="3 machines, park has 2"):
            run_stream(park, ledger, [jobs])

    @pytest.mark.parametrize("m1, e0", [(3, 1.0), (1, 0.5), (3, 0.25)])
    def test_floor_mismatch_is_rejected(self, m1, e0):
        # params for another m1 or e0 would pick another band count silently
        park = identity_park(3, m1=1, e0=0.25)
        ledger = make_ledger(quiet_params(3, m1, e0, 0.5))
        with pytest.raises(ConfigError, match=f"derived for m1 {m1}, e0 {e0}; park has m1 1, e0 0.25"):
            run_stream(park, ledger, [np.arange(1.0, 200.0)])

    def test_memory_peaks_within_bounds(self):
        park, params, jobs = self._instance()
        ledger = make_ledger(params, pmax=max(jobs))
        report, _ = run_stream(park, ledger, [jobs])
        assert report.peak_retained_jobs <= report.retained_job_bound
        assert report.peak_group_records <= report.group_record_bound


class TestReportLines:
    def _report(self, **overrides):
        park, jobs = make_instance(11, 2, 1, 0.5, 6)
        params = quiet_params(2, 1, 0.5, 0.5)
        ledger = make_ledger(params, pmax=max(jobs))
        report, _ = run_stream(park, ledger, [jobs])
        return dataclasses.replace(report, **overrides) if overrides else report

    CORE = ["mode", "regime", "value", "selected_t", "grid_exponent", "saturated_band",
            "band_offset", "search_jobs", "total_load", "job_count", "peak_retained_jobs",
            "peak_group_records", "wall_seconds", "mean_ingest_seconds"]
    EXTRA = ["max_seen", "small_bound", "assignments", "search_nodes", "lower_bound",
             "upper_bound", "epsilon", "top_band", "retain_limit", "retained_job_bound",
             "group_record_bound", "ingest_seconds", "parse_seconds", "search_seconds"]

    def test_core_lines_only_by_default(self):
        lines = self._report().as_lines()
        keys = [ln.split(":", 1)[0] for ln in lines]
        assert keys == self.CORE

    def test_stats_appends_the_extras(self):
        lines = self._report().as_lines(stats=True)
        keys = [ln.split(":", 1)[0] for ln in lines]
        assert keys == self.CORE + self.EXTRA

    def test_stats_appends_the_schedule_stage_times(self):
        report = self._report(makespan=3.5, schedule_path="out.csv",
                              second_pass_seconds=0.25, write_seconds=0.5)
        keys = [ln.split(":", 1)[0] for ln in report.as_lines(stats=True)]
        assert keys == (self.CORE + ["makespan", "schedule_path"]
                        + self.EXTRA + ["second_pass_seconds", "write_seconds"])
        keys = [ln.split(":", 1)[0] for ln in report.as_lines()]
        assert keys == self.CORE + ["makespan", "schedule_path"]

    def test_an_empty_stream_prints_band_offset_none(self):
        park, _ = make_instance(11, 2, 1, 0.5, 6)
        report, _ = run_stream(park, make_ledger(quiet_params(2, 1, 0.5, 0.5)), [])
        assert "band_offset: None" in report.as_lines()

    def test_schedule_fields_appear_when_set(self):
        report = self._report(makespan=3.5, schedule_path="out.csv")
        lines = report.as_lines()
        assert "makespan: 3.5" in lines
        assert "schedule_path: 'out.csv'" in lines

    def test_every_line_is_key_colon_value(self):
        for line in self._report().as_lines(stats=True):
            key, _, value = line.partition(": ")
            assert key.isidentifier()
            assert value


def test_regimes_agree_on_one_instance():
    park, jobs = make_instance(29, 3, 2, 0.5, 8)
    params = quiet_params(3, 2, 0.5, 0.5)
    values = []
    for regime, declared in [("pmax-given", max(jobs)), ("pmax-unknown", None)]:
        ledger = make_ledger(params, declared)
        report, _ = run_stream(park, ledger, [jobs])
        assert report.regime == ledger.regime == regime
        values.append(report.value)
    assert values[0] == values[1]


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(block, scope)
    assert scope["report"].regime == "pmax-unknown"
    assert scope["schedule"].makespan <= scope["report"].value


def test_the_readme_key_table_is_the_report_in_print_order(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n## Report keys\n", 1)[1].split("\n## ", 1)[0]
    first_cells = [ln.split("|")[1] for ln in table.splitlines() if ln.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert keys == [f.name for f in dataclasses.fields(RunReport)]

    config_text, jobs_text = generate_instance(3, 2, 1, 0.5, 40)
    cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
    cfg.write_text(config_text)
    jobs.write_text(jobs_text)

    def report_on_a_clock(step):
        ticks = iter(range(0, 10**9, step))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        assert main(["run", "--config", str(cfg), "--jobs", str(jobs), "--mode", "two-pass",
                     "--schedule-out", str(tmp_path / "s.csv"), "--stats"]) == 0
        return dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())

    slow, fast = report_on_a_clock(2), report_on_a_clock(1)
    assert list(slow) == keys
    # the timing fields are the keys that follow the clock
    assert [k for k in keys if slow[k] != fast[k]] == [k for k in keys if k.endswith("_seconds")]


def test_the_readme_modes_and_run_help_list_the_modes_in_order(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    def bullets(heading):
        section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^- `([\w-]+)`", section, re.M)

    assert bullets("Modes") == list(MODES)

    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--help"])
    assert exc_info.value.code == 0
    usage = capsys.readouterr().out
    listed = re.findall(r"--mode \{([\w,-]+)\}", usage)
    assert listed and all(choices.split(",") == list(MODES) for choices in listed)
    # the README's regimes are the --regime choices, in order
    regimes = re.findall(r"--regime \{([\w,-]+)\}", usage)
    assert regimes and all(choices.split(",") == bullets("Regimes") for choices in regimes)
