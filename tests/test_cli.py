import contextlib
import csv
import ctypes
import dataclasses
import decimal
import errno
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import random
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamspan
from streamspan import (
    ConfigError,
    JobValueError,
    MachinePark,
    Schedule,
    ScheduleContractError,
    exact_optimum,
    validate_schedule,
)
from streamspan.cli import (
    generate_instance,
    main,
    parse_machine_config,
    parse_machine_config_text,
)
import streamspan.cli as cli_mod
import streamspan.search as search_mod
import streamspan.textio as textio
from streamspan.textio import float_chunks, write_schedule_csv
from streamspan import make_ledger, run_stream, second_pass
from streamspan.schedule import SecondPass

from _support import hand_artifacts, make_instance, quiet_params

# subprocesses import the package from where this process found it
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.dirname(os.path.dirname(cli_mod.__file__)), os.environ.get("PYTHONPATH", "")]))


GOOD_CONFIG = """\
# two machines, one floor machine
m 2
m1 1
e0 0.5
machine 1 2 0.5 4 1.0   # ramp then full speed
machine 2
"""


class TestConfigParsing:
    def test_round_trip_of_the_documented_format(self):
        park = parse_machine_config_text(GOOD_CONFIG)
        assert park.m == 2
        assert park.floor_machines == 1
        assert park.ratio_floor == 0.5
        assert park.machines[0].breakpoints == (2.0, 4.0)
        assert park.machines[0].ratios == (0.5, 1.0)
        assert park.machines[1].breakpoints == ()

    def test_field_order_is_free(self):
        text = "machine 1\ne0 1\nm1 1\nm 1\n"
        park = parse_machine_config_text(text)
        assert park.m == 1

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("m 2", "duplicate m line"),
            ("m1 2", "duplicate m1 line"),
            ("e0 0.25", "duplicate e0 line"),
            ("machine 1", "duplicate machine 1"),
            ("machine nine", "machine index must be an integer"),
            ("m x", "m must be an integer"),
            ("e0 x", "e0 must be a number"),
            ("banana 3", "unknown field 'banana'"),
            ("machine", "machine line needs an index"),
            ("m 2 3", "m takes exactly one value"),
            ("m1 2 3", "m1 takes exactly one value"),
            ("e0 1 2", "e0 takes exactly one value"),
            ("m1 x", "m1 must be an integer"),
        ],
    )
    def test_line_level_rejections_carry_the_line_number(self, mutation, message):
        text = GOOD_CONFIG + mutation + "\n"
        lineno = text.count("\n")
        with pytest.raises(ConfigError, match=f"<config>:{lineno}: {message}"):
            parse_machine_config_text(text)

    @pytest.mark.parametrize(
        "drop, message",
        [("m ", "missing m line"), ("m1", "missing m1 line"), ("e0", "missing e0 line")],
    )
    def test_missing_scalars(self, drop, message):
        text = "\n".join(
            ln for ln in GOOD_CONFIG.splitlines() if not ln.startswith(drop)
        )
        with pytest.raises(ConfigError, match=message):
            parse_machine_config_text(text)

    def test_missing_machine_line(self):
        text = "m 2\nm1 1\ne0 0.5\nmachine 1\n"
        with pytest.raises(ConfigError, match=r"missing machine line\(s\) for \[2\]"):
            parse_machine_config_text(text)
        # the first five gaps, then a count
        text = "m 8\nm1 1\ne0 0.5\nmachine 1\nmachine 3\n"
        with pytest.raises(ConfigError, match=r"for \[2, 4, 5, 6, 7\] and 1 more$"):
            parse_machine_config_text(text)

    def test_machine_index_outside_range(self):
        text = "m 1\nm1 1\ne0 0.5\nmachine 1\nmachine 2\n"
        with pytest.raises(ConfigError, match=r"index\(es\) \[2\] outside 1..1"):
            parse_machine_config_text(text)

    def test_odd_pair_count(self):
        text = "m 1\nm1 1\ne0 0.5\nmachine 1 2 0.5 4\n"
        with pytest.raises(ConfigError, match="got 3 values"):
            parse_machine_config_text(text)

    def test_non_numeric_pair(self):
        text = "m 1\nm1 1\ne0 0.5\nmachine 1 2 fast\n"
        with pytest.raises(ConfigError, match="machine 1 has a non-numeric value"):
            parse_machine_config_text(text)

    def test_park_validation_still_applies(self):
        # ratio below the floor on a floor machine is the park's complaint
        text = "m 1\nm1 1\ne0 0.5\nmachine 1 3 0.25\n"
        with pytest.raises(ConfigError, match="machine 1"):
            parse_machine_config_text(text)

    def test_path_appears_in_file_errors(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m 1\n")
        with pytest.raises(ConfigError, match="bad.cfg: missing m1 line"):
            parse_machine_config(str(cfg))


def _float_refuses(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


class TestStreamTokenizer:
    def test_tokens_survive_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(textio, "_READ_CHARS", 3)
        for text in ("12.5  7\n 3.25\t\t19 4", "12  7\n 325\t\t19 4", "1 2345678 9\n"):
            values = np.concatenate(list(float_chunks(io.StringIO(text))))
            assert values.tobytes() == np.array(text.split(), np.float64).tobytes()

    def test_float_chunks_report_positions(self, monkeypatch):
        monkeypatch.setattr(textio, "_READ_CHARS", 4)
        with pytest.raises(JobValueError, match="position 2") as exc_info:
            for _ in float_chunks(io.StringIO("1 2 oops 4")):
                pass
        assert exc_info.value.position == 2

    # float() accepts or refuses each of these; the parser must agree bit for bit
    FLOAT_CORPUS = (
        "1_000", "\u0661\u0662\u0663", "\uff11\uff12\uff13", "inf", "-Infinity", "iNf",
        "nan", "-nan", "+nan", "NaN", "1e400", "1e-400", "-0", "+.5", "5.", "1e5_0",
        "0x10", "1__0", "_1", "1,5", "e5", "0b1", "5e-324", "0.1", "1e16", "12345678901234567890",
        "5\x00", "\x005",
    )
    REFUSED = ("0x10", "1__0", "_1", "1,5", "e5", "0b1", "5\x00", "\x005")

    @pytest.mark.parametrize("token", FLOAT_CORPUS)
    def test_float_chunks_parse_like_float(self, token):
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(JobValueError, match="position 1"):
                list(float_chunks(io.StringIO(f"2 {token} 3\n")))
            return
        (values,) = list(float_chunks(io.StringIO(f"2 {token} 3\n")))
        assert values.dtype == np.float64
        assert values[1:2].tobytes() == struct.pack("=d", expected)

    def test_float_chunks_parse_a_chunk_like_float(self):
        tokens = [t for t in self.FLOAT_CORPUS if t not in self.REFUSED]
        (values,) = list(float_chunks(io.StringIO(" ".join(tokens) + "\n")))
        assert values.tobytes() == struct.pack(f"={len(tokens)}d", *map(float, tokens))

    def test_empty_stream_yields_nothing(self):
        assert list(float_chunks(io.StringIO(""))) == []
        assert list(float_chunks(io.StringIO(" \n\t "))) == []

    # digit runs either side of the 18 digits the digit path takes, 2**53 + 1
    DIGIT_RUNS = (
        "9" * 18, "9" * 19, "1" + "0" * 18, "0" * 17 + "1", "0" * 24 + "7",
        "9007199254740993", "999999999999999999", "123456789012345678",
    )
    # str.split() also splits on the last seven, bytes.split() does not
    SEPARATORS = " \t\n\r\x0b\x0c" + "\x1c\x1d\x1e\x1f\x85\xa0\u3000"

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.text("0123456789", min_size=1, max_size=25),
                    st.sampled_from(DIGIT_RUNS),
                    st.sampled_from(FLOAT_CORPUS),
                ),
                st.text(SEPARATORS, min_size=1, max_size=3),
            ),
            max_size=30,
        ),
        st.text(SEPARATORS, max_size=2),
        st.booleans(),
        st.sampled_from((1, 3, 7, 65536)),
    )
    @example([("9007199254740993", " "), ("9" * 19, "\n")], "", True, 65536)
    @example([("12", "\xa0"), ("7", " ")], "", True, 65536)
    def test_float_chunks_parse_like_split_and_float(self, pairs, lead, closed, read_chars):
        text = lead + "".join(tok + sep for tok, sep in pairs)
        if not closed and pairs:
            text = text[: -len(pairs[-1][1])]  # the stream ends inside its last token
        toks = text.split()
        refused = [i for i, tok in enumerate(toks) if _float_refuses(tok)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textio, "_READ_CHARS", read_chars)
            if refused:
                with pytest.raises(JobValueError) as exc_info:
                    list(float_chunks(io.StringIO(text)))
                assert exc_info.value.position == refused[0]
                return
            chunks = list(float_chunks(io.StringIO(text)))
        values = np.concatenate(chunks) if chunks else np.empty(0, np.float64)
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(toks, np.float64).tobytes()


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = generate_instance(9, 3, 2, 0.5, 40)
        b = generate_instance(9, 3, 2, 0.5, 40)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_instance(1, 2, 1, 0.5, 40) != generate_instance(2, 2, 1, 0.5, 40)

    def test_output_parses_and_respects_the_floor(self):
        config_text, jobs_text = generate_instance(3, 3, 2, 0.5, 10)
        park = parse_machine_config_text(config_text)
        assert isinstance(park, MachinePark)
        assert park.m == 3 and park.floor_machines == 2
        for tl in park.machines[:2]:
            assert all(r >= 0.5 for r in tl.ratios)
        jobs = [float(tok) for tok in jobs_text.split()]
        assert len(jobs) == 10
        assert all(1 <= p <= 16 and p == int(p) for p in jobs)

    def test_floor_of_one_forces_unit_ratios(self):
        config_text, _ = generate_instance(4, 2, 2, 1.0, 0)
        park = parse_machine_config_text(config_text)
        for tl in park.machines:
            assert all(r == 1.0 for r in tl.ratios)

    def test_impossible_floor_is_rejected(self):
        with pytest.raises(ConfigError, match="no ratio choice"):
            generate_instance(0, 2, 1, 1.0, 4, ratio_choices=(0.25, 0.5))

    def test_interval_range_is_checked(self):
        with pytest.raises(ConfigError, match="0 <= lo <= hi"):
            generate_instance(0, 2, 1, 1.0, 4, intervals=(3, 1))

    def test_machine_counts_are_checked(self):
        # each would write a config that the parser refuses
        with pytest.raises(ConfigError, match=r"m1 must be in \[1, 2\], got 3"):
            generate_instance(1, m=2, m1=3, e0=0.5, n=4)
        with pytest.raises(ConfigError, match="m must be >= 1, got 0"):
            generate_instance(1, m=0, m1=0, e0=0.5, n=4)


@pytest.fixture
def instance(tmp_path):
    # 14 jobs: small enough that even the oracle's 2**14 enumeration is instant
    config_text, jobs_text = generate_instance(21, 2, 1, 0.5, 14)
    cfg = tmp_path / "park.cfg"
    jobs = tmp_path / "jobs.txt"
    cfg.write_text(config_text)
    jobs.write_text(jobs_text)
    return str(cfg), str(jobs)


def _run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _mode_args(run, jobs, monkeypatch):
    """--mode and --jobs of run on the job file jobs.  Run "two-pass-stdin"
    is two-pass mode fed the file on standard input, which it cannot read
    twice."""
    if run != "two-pass-stdin":
        return ["--mode", run, "--jobs", str(jobs)]
    stdin = io.TextIOWrapper(io.BytesIO(Path(jobs).read_bytes()), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    return ["--mode", "two-pass", "--jobs", "-"]


class _SpillFile:
    """A spill's temporary file that fails as told: "write" fails its first
    write with ENOSPC, "read" the read of the last chunk with EIO, and
    "halve" halves the values of the last chunk it reads."""

    def __init__(self, file, dir, fail):
        self.file, self.dir, self.fail = file, dir, fail
        self.chunks = 0

    def __getattr__(self, name):
        return getattr(self.file, name)

    def write(self, data):
        if self.fail == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.chunks += isinstance(data, np.ndarray)
        return self.file.write(data)

    def readinto(self, values):
        self.chunks -= 1
        if self.chunks or self.fail is None:
            return self.file.readinto(values)
        if self.fail == "read":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        got = self.file.readinto(values)
        values /= 2
        return got


def _spill_files(monkeypatch, fail=None):
    """Make each spill's temporary file a _SpillFile that fails as told;
    the list of those made."""
    made = []
    real = tempfile.TemporaryFile

    def spill_file(dir=None):
        made.append(_SpillFile(real(dir=dir), dir, fail))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", spill_file)
    return made


def _report_dict(stdout):
    pairs = [ln.partition(": ") for ln in stdout.splitlines() if ln]
    return {k: v for k, _, v in pairs}


def _read_schedule(path, m):
    """A schedule CSV, rows in job id order, back as a Schedule; each run
    in start order."""
    rows = [row.split(",") for row in path.read_text().splitlines()]
    machine = np.array([int(r[1]) for r in rows[1:-1]], np.int64)
    start = np.array([float(r[2]) for r in rows[1:-1]])
    completion = np.array([float(r[3]) for r in rows[1:-1]])
    runs = tuple(
        np.flatnonzero(machine == i)[np.argsort(start[machine == i], kind="stable")]
        for i in range(1, m + 1)
    )
    return Schedule(machine, start, completion, runs, float(rows[-1][1]))


class TestRunCommand:
    def test_one_pass_reports_core_keys(self, capsys, instance):
        cfg, jobs = instance
        code, out, err = _run_main(capsys, ["run", "--config", cfg, "--jobs", jobs])
        assert code == 0 and not err
        report = _report_dict(out)
        assert report["mode"] == "'one-pass'"
        assert report["regime"] == "'pmax-unknown'"
        assert float(report["value"]) > 0
        assert "max_seen" not in report  # stats only

    def test_regimes_report_the_same_value(self, capsys, instance):
        cfg, jobs = instance
        pmax = str(max(float(t) for t in Path(jobs).read_text().split()))
        values = {}
        for extra in (
            ["--regime", "pmax-given", "--pmax", pmax],
            ["--regime", "pmax-unknown"],
            [],
        ):
            code, out, _ = _run_main(
                capsys, ["run", "--config", cfg, "--jobs", jobs] + extra
            )
            assert code == 0
            values[tuple(extra)] = _report_dict(out)["value"]
        assert len(set(values.values())) == 1

    def test_a_pmax_in_the_band_of_the_maximum_reports_as_the_exact_one(self, capsys,
                                                                         instance, tmp_path):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 1 2 3 1\n")
        reports = []
        for pmax in ("3", "4"):  # both in the band (2, 4]
            code, out, _ = _run_main(
                capsys,
                ["run", "--config", cfg, "--jobs", str(jobs), "--stats",
                 "--regime", "pmax-given", "--pmax", pmax],
            )
            assert code == 0
            reports.append([ln for ln in out.splitlines() if "_seconds" not in ln])
        assert reports[0] == reports[1]

    def test_two_pass_writes_the_schedule(self, capsys, instance, tmp_path):
        cfg, jobs = instance
        out_csv = tmp_path / "sched.csv"
        code, out, _ = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
             "--schedule-out", str(out_csv)],
        )
        assert code == 0
        report = _report_dict(out)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "job_id,machine,start,completion"
        assert lines[-1] == f"makespan,{report['makespan']}"
        n_jobs = len(Path(jobs).read_text().split())
        assert len(lines) == n_jobs + 2
        assert float(report["makespan"]) <= float(report["value"])

    def test_stats_time_the_schedule_stages(self, capsys, instance, tmp_path, monkeypatch):
        cfg, jobs = instance
        argv = ["run", "--config", cfg, "--stats"]
        _, out, _ = _run_main(capsys, argv + ["--jobs", jobs])
        assert "second_pass_seconds" not in _report_dict(out)
        for run in ("two-pass", "two-pass-stdin"):
            code, out, _ = _run_main(capsys, argv + [
                *_mode_args(run, jobs, monkeypatch), "--schedule-out", str(tmp_path / "s.csv")])
            assert code == 0
            keys = list(_report_dict(out))
            assert keys[-2:] == ["second_pass_seconds", "write_seconds"]

    @staticmethod
    def _written(path, park, artifacts):
        """The CSV write_schedule_csv makes of the stage over the artifacts'
        spill, and the schedule second_pass builds from it."""
        with artifacts.spill:
            with open(path, "wb") as fh:
                write_schedule_csv(fh, SecondPass(park, artifacts))
            return path.read_bytes(), second_pass(park, artifacts)

    def test_schedule_csv_matches_the_csv_module(self, tmp_path):
        park, sizes = make_instance(5, 3, 1, 0.5, 200, ratio_choices=(0.3, 0.7, 1.0))
        # two large jobs in each of the top two bands, shuffled among the
        # small ones as in the search-j14 workload
        mixed = sizes + [150, 170, 60, 80]
        random.Random(4).shuffle(mixed)
        params = quiet_params(3, 1, 0.5, 0.5, retain_limit=3)  # a small search
        for jobs in (sizes, mixed):
            jobs = [p * 0.37 for p in jobs]  # real-valued completions
            ledger = make_ledger(params, pmax=max(jobs))
            chunks = [jobs[i : i + 16] for i in range(0, len(jobs), 16)]
            _, artifacts = run_stream(park, ledger, chunks, mode="two-pass")
            written, sched = self._written(tmp_path / "s.csv", park, artifacts)
            expected = io.StringIO(newline="")
            w = csv.writer(expected)
            w.writerow(["job_id", "machine", "start", "completion"])
            for j in range(len(jobs)):
                w.writerow([j, int(sched.machine[j]), repr(float(sched.start[j])),
                            repr(float(sched.completion[j]))])
            w.writerow(["makespan", repr(sched.makespan)])
            assert written == expected.getvalue().encode()
        # small jobs that start where a job of their block two or more rows
        # up completes, one of them just below a large job of its machine
        large = {j for j, _ in artifacts.outcome.jobs}
        assert len(large) == 4
        after = {int(b): int(a) for run in sched.runs for a, b in zip(run[:-1], run[1:])}
        far = [j for j, a in after.items() if j not in large and a // 16 == j // 16 and a < j - 1]
        assert any(sched.machine[j - 1] == sched.machine[j] for j in far)

    @pytest.mark.parametrize("m", [3, 11])
    def test_schedule_csv_of_exact_completions_matches_repr(self, tmp_path, m):
        # integer sizes on a park of power-of-two ratios: the digit path;
        # every job large and dealt round robin, so every machine number is
        # written and most starts lie in other blocks of 7 rows
        park, jobs = make_instance(3, m, 1, 0.5, 300, jobs_max=4000)
        chunks = [jobs[i : i + 7] for i in range(0, len(jobs), 7)]
        artifacts = hand_artifacts(park, jobs, {j: j % m + 1 for j in range(len(jobs))}, 0.0,
                                   chunks)
        written, sched = self._written(tmp_path / "s.csv", park, artifacts)
        rows = [f"{j},{int(sched.machine[j])},{float(sched.start[j])!r},"
                f"{float(sched.completion[j])!r}" for j in range(len(jobs))]
        expected = "\r\n".join(["job_id,machine,start,completion", *rows,
                                 f"makespan,{sched.makespan!r}", ""])
        assert written == expected.encode()

    def test_schedule_out_through_a_symlink_replaces_its_target(self, capsys, instance,
                                                                tmp_path):
        cfg, jobs = instance
        target = tmp_path / "real.csv"
        target.write_bytes(b"an earlier schedule\r\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, err = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
             "--schedule-out", str(link)],
        )
        assert code == 0, err
        assert link.is_symlink()
        assert target.read_text().startswith("job_id,machine,start,completion")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "jobs.txt", "link.csv", "park.cfg", "real.csv"]

    def test_schedule_out_to_a_pipe_is_written_in_place(self, capsys, instance, tmp_path):
        cfg, jobs = instance
        argv = ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass", "--schedule-out"]
        _run_main(capsys, argv + [str(tmp_path / "s.csv")])
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, err = _run_main(capsys, argv + [str(fifo)])
        reader.join(timeout=10)
        assert code == 0, err
        assert not reader.is_alive()
        assert got == [(tmp_path / "s.csv").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fifo", "jobs.txt", "park.cfg", "s.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("stdout", ["a pipe", "a file"])
    def test_schedule_out_to_dev_stdout_comes_before_the_report(self, capsys, instance,
                                                                tmp_path, stdout):
        cfg, jobs = instance
        argv = ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass", "--schedule-out"]
        _run_main(capsys, argv + [str(tmp_path / "s.csv")])
        command = [sys.executable, "-m", "streamspan.cli", *argv, "/dev/stdout"]
        if stdout == "a pipe":
            res = subprocess.run(command, capture_output=True, env=_ENV)
            written = res.stdout
        else:
            with open(tmp_path / "out.txt", "wb") as fh:
                res = subprocess.run(command, stdout=fh, stderr=subprocess.PIPE, env=_ENV)
            written = (tmp_path / "out.txt").read_bytes()
        assert res.returncode == 0, res.stderr
        schedule = (tmp_path / "s.csv").read_bytes()
        assert written.startswith(schedule)
        assert b"\nschedule_path: '/dev/stdout'\n" in written[len(schedule):]

    def test_a_replaced_schedule_keeps_the_old_file_mode(self, capsys, instance, tmp_path):
        cfg, jobs = instance
        out_csv = tmp_path / "s.csv"
        out_csv.write_bytes(b"an earlier schedule\r\n")
        out_csv.chmod(0o640)
        code, _, err = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
             "--schedule-out", str(out_csv)],
        )
        assert code == 0, err
        assert out_csv.read_text().startswith("job_id,machine,start,completion")
        assert out_csv.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("regime", [[], ["--regime", "pmax-given", "--pmax", "1100"]])
    def test_two_pass_from_stdin_equals_two_pass_from_the_file(self, capsys, instance, tmp_path,
                                                              monkeypatch, regime):
        cfg, jobs = instance
        # small jobs, then a few large ones: the window follows the
        # maximum, so it retains the small ones before the large arrive
        rising = tmp_path / "rising.txt"
        rising.write_text(" ".join(["1", "2", "3"] * 40 + ["900", "1000", "1100"]) + "\n")
        for stream, flags in ((jobs, []), (rising, regime)):
            reports = {}
            for run in ("two-pass", "two-pass-stdin"):
                code, out, err = _run_main(
                    capsys,
                    ["run", "--config", cfg, *_mode_args(run, stream, monkeypatch), *flags,
                     "--stats", "--schedule-out", str(tmp_path / f"{run}.csv")],
                )
                assert code == 0, err
                reports[run] = {k: v for k, v in _report_dict(out).items()
                                if k != "schedule_path" and not k.endswith("_seconds")}
            assert reports["two-pass-stdin"] == reports["two-pass"]
            # regime1 on the file is perfbench twopass-dense-1m's flag shape
            assert reports["two-pass"]["regime"] == repr(flags[1] if flags else "pmax-unknown")
            assert ((tmp_path / "two-pass-stdin.csv").read_bytes()
                    == (tmp_path / "two-pass.csv").read_bytes())
        assert int(reports["two-pass"]["peak_retained_jobs"]) >= 120

    @pytest.mark.parametrize("source", ["stdin", "pipe", "fifo"])
    def test_two_pass_on_a_stream_read_once_matches_the_file(self, tmp_path, source):
        # a stream that cannot be opened again is replayed from the first
        # pass's spill, as a file is; 30K jobs span two read blocks.  Each
        # run is a process of its own, killed if it hangs, as one that
        # opened the FIFO a second time would
        config_text, jobs_text = generate_instance(8, 3, 1, 0.5, 30_000)
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text(config_text)
        jobs.write_text(jobs_text)

        def run(stream, name, **popen):
            csv = tmp_path / f"{name}.csv"
            argv = [sys.executable, "-m", "streamspan.cli", "run", "--config", str(cfg),
                    "--jobs", stream, "--mode", "two-pass", "--stats", "--schedule-out", str(csv)]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=_ENV, **popen) as proc:
                try:
                    out, err = proc.communicate(jobs_text.encode() if stream == "-" else None,
                                                timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    pytest.fail(f"two-pass on {source} did not finish")
            assert proc.returncode == 0, err
            report = {k: v for k, v in _report_dict(out.decode()).items()
                      if k != "schedule_path" and not k.endswith("_seconds")}
            return report, csv.read_bytes()

        def feed(path_or_fd):
            with contextlib.suppress(BrokenPipeError), open(path_or_fd, "wb") as fh:
                fh.write(jobs_text.encode())

        want = run(str(jobs), "file")
        if source == "stdin":
            got = run("-", source, stdin=subprocess.PIPE)
        elif source == "pipe":
            r, w = os.pipe()
            writer = threading.Thread(target=feed, args=(w,))
            writer.start()
            try:
                got = run(f"/dev/fd/{r}", source, pass_fds=(r,))
            finally:
                os.close(r)
                writer.join()
        else:
            fifo = tmp_path / "jobs.fifo"
            os.mkfifo(fifo)
            writer = threading.Thread(target=feed, args=(fifo,))
            writer.start()
            try:
                got = run(str(fifo), source)
            finally:
                # a writer still waiting for its reader is let go
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                writer.join()
        assert got == want

    def test_two_pass_reads_stdin_when_no_jobs_path_is_given(self, capsys, instance, tmp_path,
                                                             monkeypatch):
        # a text stdin with no reconfigure, as an embedding program may set
        cfg, jobs = instance
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "--config", cfg, "--mode", "two-pass"]
        _, out_file, _ = _run_main(capsys, argv + ["--jobs", jobs, "--schedule-out", str(a)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(jobs).read_text()))
        code, out_stdin, err = _run_main(capsys, argv + ["--schedule-out", str(b)])
        assert code == 0, err
        assert a.read_text() == b.read_text()
        assert _report_dict(out_file)["value"] == _report_dict(out_stdin)["value"]

    def test_two_pass_from_stdin_times_its_parse(self, capsys, instance, tmp_path, monkeypatch):
        cfg, jobs = instance
        real_job_chunks = cli_mod._job_chunks
        sleeps = []

        def slow_job_chunks(path):
            for chunk in real_job_chunks(path):
                time.sleep(0.02)
                sleeps.append(0.02)
                yield chunk

        monkeypatch.setattr(cli_mod, "_job_chunks", slow_job_chunks)
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, *_mode_args("two-pass-stdin", jobs, monkeypatch),
                     "--stats", "--schedule-out", str(tmp_path / "s.csv")],
        )
        assert code == 0, err
        report = {k: float(v) for k, v in _report_dict(out).items() if k.endswith("_seconds")}
        assert sleeps and report["parse_seconds"] >= sum(sleeps)
        stages = report["parse_seconds"] + report["ingest_seconds"] + report["search_seconds"]
        assert stages <= report["wall_seconds"]

    @pytest.mark.parametrize("run", ["one-pass", "two-pass", "two-pass-stdin", "oracle"])
    def test_every_mode_reports_the_first_fault(self, capsys, instance, tmp_path, monkeypatch,
                                                run):
        cfg, _ = instance
        # a bad size in the first read block, an unparsable token in a later one
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("0\n" + "1\n" * 40_000 + "abc\n")
        sched = ["--schedule-out", str(tmp_path / "s.csv")] if "two-pass" in run else []
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, *_mode_args(run, jobs, monkeypatch), *sched])
        assert (code, out) == (3, "")
        assert err.endswith("must be finite and > 0, got 0.0 at position 0\n"), err

    def test_oracle_mode_matches_the_library(self, capsys, instance):
        cfg, jobs = instance
        code, out, _ = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--mode", "oracle"]
        )
        assert code == 0
        report = _report_dict(out)
        park = parse_machine_config(cfg)
        stream = [float(t) for t in Path(jobs).read_text().split()]
        want = exact_optimum(park, stream)
        assert float(report["optimal_makespan"]) == want.makespan
        code, out, _ = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--mode", "oracle", "--stats"]
        )
        assert code == 0
        report = _report_dict(out)
        assert list(report) == ["mode", "job_count", "optimal_makespan", "witness_ordinal"]
        assert int(report["witness_ordinal"]) == want.ordinal

    @pytest.mark.parametrize("flags", [
        ["--regime", "pmax-unknown"],
        ["--regime", "pmax-given", "--pmax", "371.85"],
        ["--regime", "pmax-given", "--pmax", "500"],  # 371.85's band is (256, 512]
        ["--mode", "two-pass"],
        ["--mode", "two-pass-stdin"],
    ])
    def test_grid_covers_the_large_jobs_on_machine_1(self, capsys, tmp_path, monkeypatch, flags):
        # P/e0 = 2275.5 is the top of the grid's usual span, but the ten
        # jobs, all large, fold band by band to 2275.5000000000005
        cfg = tmp_path / "one.cfg"
        cfg.write_text("m 1\nm1 1\ne0 1\nmachine 1\n")
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("329.67 194.25 192.77 371.85 128.39 235.32 83.25 159.47 261.96 318.57\n")
        if "--mode" in flags:
            flags = _mode_args(flags[1], jobs, monkeypatch) + [
                "--schedule-out", str(tmp_path / "s.csv")]
        else:
            flags = flags + ["--jobs", str(jobs)]
        code, out, err = _run_main(capsys, ["run", "--config", str(cfg), *flags])
        assert code == 0, err
        assert _report_dict(out)["value"] == "2844.375"

    def test_stdin_works_for_one_pass(self, capsys, instance, monkeypatch):
        cfg, jobs = instance
        stream = Path(jobs).read_text()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
        code, out, _ = _run_main(capsys, ["run", "--config", cfg])
        assert code == 0
        assert float(_report_dict(out)["value"]) > 0

    @pytest.mark.parametrize("run", ["two-pass", "two-pass-stdin"], ids=["file", "stdin"])
    @pytest.mark.parametrize("config, stream", [
        ("m 1\nm1 1\ne0 1\nmachine 1 10 1.0\n", "0.6 5.1 5.2\n"),
        ("m 1\nm1 1\ne0 0.5\nmachine 1\n",
         "2.0000000000014078 2.0000000000003837 42 29 63\n"),
    ], ids=["breakpoint", "no-breakpoint"])
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_one_machine_makespan_is_at_most_value(self, capsys, tmp_path, monkeypatch, config,
                                                   stream, run):
        # on one machine V is the grid time t = P, the arrival-order fold,
        # and the second pass folds the large jobs first: an ulp more
        cfg = tmp_path / "one.cfg"
        cfg.write_text(config)
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(stream)
        code, out, _ = _run_main(capsys, [
            "run", "--config", str(cfg), *_mode_args(run, jobs, monkeypatch),
            "--schedule-out", str(tmp_path / "s.csv")])
        assert code == 0
        report = _report_dict(out)
        assert float(report["makespan"]) <= float(report["value"])

    @pytest.mark.parametrize("flag", ["--gamma0-override", "--n0-override"])
    def test_the_band_parameters_cannot_be_overridden(self, capsys, instance, flag):
        cfg, jobs = instance
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--config", cfg, "--jobs", jobs, flag, "3"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_config_is_2(self, capsys, tmp_path, instance):
        _, jobs = instance
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("m 2\nm1 5\ne0 0.5\nmachine 1\nmachine 2\n")
        code, _, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", jobs])
        assert code == 2
        assert "streamspan: error:" in err

    @pytest.mark.parametrize("machine", ["machine 1 nan 0.5", "machine 1 2 0.5 nan 0.5 5 1"])
    def test_nan_breakpoint_is_2(self, capsys, tmp_path, machine):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"m 1\nm1 1\ne0 0.5\n{machine}\n")
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("1 2 9\n")
        code, out, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", str(jobs)])
        assert code == 2
        assert "(nan) not greater than previous" in err
        assert out == ""

    def test_missing_machine_lines_for_a_huge_m_is_2_and_brief(self, capsys, tmp_path, instance):
        _, jobs = instance
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("m 1000000000\nm1 1\ne0 0.5\nmachine 1\n")
        t0 = time.perf_counter()
        code, _, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", jobs])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "missing machine line(s) for [2, 3, 4, 5, 6] and 999999994 more" in err
        assert len(err) < 200

    @pytest.mark.parametrize("which", ["missing", "directory"])
    def test_unreadable_config_is_2(self, capsys, instance, tmp_path, which):
        _, jobs = instance
        cfg = tmp_path / "nothing.cfg" if which == "missing" else tmp_path
        code, out, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", jobs])
        assert code == 2
        assert f"cannot read config {cfg}" in err
        assert out == ""

    @pytest.mark.parametrize("which", ["missing", "directory"])
    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_unreadable_job_stream_is_2(self, capsys, instance, tmp_path, which, mode):
        cfg, _ = instance
        jobs = tmp_path / "nothing.txt" if which == "missing" else tmp_path
        out_csv = tmp_path / "s.csv"
        sched = [] if mode == "one-pass" else ["--schedule-out", str(out_csv)]
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", str(jobs), "--mode", mode, *sched]
        )
        assert code == 2
        assert f"cannot read job stream {jobs}" in err
        assert out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("target", ["nodir/x.csv", "."])
    @pytest.mark.parametrize("run", ["two-pass", pytest.param("two-pass-stdin", id="stdin")])
    def test_unwritable_schedule_out_is_2_before_any_job_is_read(
        self, capsys, instance, tmp_path, monkeypatch, target, run
    ):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 4 five 6\n")  # exit 3 had it been read
        monkeypatch.chdir(tmp_path)
        code, out, err = _run_main(
            capsys,
            ["run", "--config", cfg, *_mode_args(run, jobs, monkeypatch), "--schedule-out", target],
        )
        assert code == 2
        assert f"cannot write the schedule to {target}" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "park.cfg"]

    # a job stream on stdin: test_a_schedule_out_that_is_standard_input_is_2
    @pytest.mark.parametrize("which, run", [
        ("job stream", "two-pass"), ("config", "two-pass"),
        pytest.param("config", "two-pass-stdin", id="config-stdin"),
    ])
    def test_a_schedule_out_that_is_an_input_is_2_and_leaves_it(
        self, capsys, instance, tmp_path, monkeypatch, which, run
    ):
        cfg, jobs = instance
        target = jobs if which == "job stream" else cfg
        link = tmp_path / "link.csv"  # the same file under another name
        link.symlink_to(target)
        kept = Path(target).read_bytes()
        code, out, err = _run_main(
            capsys,
            ["run", "--config", cfg, *_mode_args(run, jobs, monkeypatch),
             "--schedule-out", str(link)],
        )
        assert code == 2
        assert f"cannot write the schedule to {link}: it is the {which}" in err
        assert out == ""
        assert Path(target).read_bytes() == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "link.csv", "park.cfg"]

    def test_a_schedule_out_that_is_standard_input_is_2(self, instance):
        cfg, jobs = instance
        kept = Path(jobs).read_bytes()
        with open(jobs, "rb") as stdin:
            res = subprocess.run(
                [sys.executable, "-m", "streamspan.cli", "run", "--config", cfg,
                 "--mode", "two-pass", "--schedule-out", jobs],
                stdin=stdin, capture_output=True, env=_ENV,
            )
        assert res.returncode == 2, res.stderr
        assert b"it is the job stream" in res.stderr
        assert Path(jobs).read_bytes() == kept

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_an_output_closed_by_its_reader_is_7(self, tmp_path):
        # a schedule far larger than a pipe's buffer: the run is still
        # writing it when the reader closes the pipe after one line
        config_text, jobs_text = generate_instance(5, 2, 1, 0.5, 20_000)
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text(config_text)
        jobs.write_text(jobs_text)
        with subprocess.Popen(
            [sys.executable, "-m", "streamspan.cli", "run", "--config", str(cfg), "--jobs",
             str(jobs), "--mode", "two-pass", "--schedule-out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_ENV,
        ) as proc:
            assert proc.stdout.readline() == b"job_id,machine,start,completion\r\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 7, err
        assert b"Traceback" not in err

    @pytest.mark.parametrize("run", ["one-pass", "two-pass", "two-pass-stdin"])
    def test_a_byte_that_is_not_utf8_is_3_with_its_position(self, capsys, instance, tmp_path,
                                                            monkeypatch, run):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_bytes(b"3 4 5\xff 6\n")
        sched = [] if run == "one-pass" else ["--schedule-out", str(tmp_path / "s.csv")]
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, *_mode_args(run, jobs, monkeypatch), *sched]
        )
        assert code == 3
        assert "byte 0xff, which is not UTF-8, at position 2" in err
        assert out == ""

    def test_a_byte_that_is_not_utf8_on_stdin_is_3(self, instance):
        cfg, _ = instance
        res = subprocess.run(
            [sys.executable, "-m", "streamspan.cli", "run", "--config", cfg],
            input=b"3 4\n\xfe 6\n", capture_output=True, env=_ENV,
        )
        assert res.returncode == 3, res.stderr
        assert b"byte 0xfe, which is not UTF-8, at position 2" in res.stderr

    def test_a_config_byte_that_is_not_utf8_is_2(self, capsys, instance, tmp_path):
        _, jobs = instance
        cfg = tmp_path / "park.cfg"
        cfg.write_bytes(b"m 1\nm1 1\ne0 1\nmachine 1 # \xff\n")
        code, _, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", jobs])
        assert code == 2
        assert "byte 0xff at offset 26 is not UTF-8" in err

    def test_bad_job_token_is_3(self, capsys, instance, tmp_path):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 4 five 6\n")
        code, _, err = _run_main(capsys, ["run", "--config", cfg, "--jobs", str(jobs)])
        assert code == 3
        assert "position 2" in err

    def test_nonpositive_job_is_3(self, capsys, instance, tmp_path):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 -4 5\n")
        for mode in ("one-pass", "oracle"):
            code, _, err = _run_main(
                capsys, ["run", "--config", cfg, "--jobs", str(jobs), "--mode", mode]
            )
            assert code == 3
            assert "position 1" in err

    def test_overflowing_load_is_3(self, capsys, instance, tmp_path):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("1e308 1e308 1e308\n")
        for extra in ([], ["--regime", "pmax-given", "--pmax", "1e308"], ["--mode", "oracle"]):
            code, out, err = _run_main(
                capsys, ["run", "--config", cfg, "--jobs", str(jobs), *extra]
            )
            assert code == 3
            assert "position 1" in err
            assert "inf" not in out

    def test_overflowing_search_grid_is_3(self, capsys, instance, tmp_path, monkeypatch):
        # one job is a finite load, but the grid tops out near P/e0 = 3.4e308
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("1.7e308\n")
        sched = ["--schedule-out", str(tmp_path / "s.csv")]
        for run in ("one-pass", "two-pass", "two-pass-stdin"):
            code, out, err = _run_main(capsys, [
                "run", "--config", cfg, *_mode_args(run, jobs, monkeypatch),
                *(sched if "two-pass" in run else [])])
            assert code == 3, run
            assert "grid overflows" in err
            assert out == ""

    def test_a_saturated_top_band_is_3_or_a_finite_value(self, capsys, tmp_path, monkeypatch):
        # epsilon 32 derives retain limit 1 and top band 0 on both parks, so
        # the one job 1.7e308 fills band 1024, whose upper edge 2^1024 is
        # past every float: every job is small, with no finite bound.  Two
        # machines each owe a late small job, so the value overflows at the
        # grid's first point, P/m; one machine owes none and its value is
        # the grid time
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("1.7e308\n")
        sched = ["--schedule-out", str(tmp_path / "s.csv")]
        parks = {"m 2\nm1 1\ne0 0.5\nmachine 1\nmachine 2\n": 3, "m 1\nm1 1\ne0 1\nmachine 1\n": 0}
        for park, want in parks.items():
            cfg = tmp_path / "park.cfg"
            cfg.write_text(park)
            for run in ("one-pass", "two-pass", "two-pass-stdin"):
                with pytest.warns(RuntimeWarning, match="epsilon"):
                    code, out, err = _run_main(capsys, [
                        "run", "--config", str(cfg), *_mode_args(run, jobs, monkeypatch),
                        "--epsilon", "32", "--stats", *(sched if "two-pass" in run else [])])
                assert code == want, (park, run, err)
                if want:
                    assert "value overflows at t = 8.5e+307" in err and out == ""
                else:
                    report = _report_dict(out)
                    assert report["value"] == "1.7e+308", run
                    assert report["small_bound"] == "inf"

    def test_subnormal_total_load_is_3(self, capsys, tmp_path):
        # P/m rounds to 0, so no power of the grid ratio reaches P/e0
        cfg = tmp_path / "park.cfg"
        cfg.write_text("m 2\nm1 1\ne0 0.5\nmachine 1\nmachine 2\n")
        jobs = tmp_path / "jobs.txt"
        sched = tmp_path / "s.csv"
        jobs.write_text("5e-324\n")
        for extra in ([], ["--mode", "two-pass", "--schedule-out", str(sched)]):
            code, out, err = _run_main(
                capsys, ["run", "--config", str(cfg), "--jobs", str(jobs), *extra]
            )
            assert code == 3, extra
            assert "total load 5e-324 is too small: P/m rounds to 0" in err
            assert out == ""
            assert not sched.exists()
        for stream in ("1e-320\n", "5e-324 5e-324\n"):  # P/m stays above 0
            jobs.write_text(stream)
            code, _, err = _run_main(capsys, ["run", "--config", str(cfg), "--jobs", str(jobs)])
            assert code == 0, (stream, err)

    def test_grid_ending_an_ulp_short_of_the_load_is_0(self, capsys, tmp_path):
        # e0 = 1.1**-4 and eps 0.2 put P/e0 on grid point 4, where machine 1
        # delivers 182.99999999999997 of P = 183: the grid must go on a point
        e0 = 1.1**-4
        cfg = tmp_path / "park.cfg"
        cfg.write_text(f"m 1\nm1 1\ne0 {e0!r}\nmachine 1 1000000000 {e0!r}\n")
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("92 90 1\n")
        sched = tmp_path / "s.csv"
        park = parse_machine_config(str(cfg))
        stream = [92.0, 90.0, 1.0]
        optimum = exact_optimum(park, stream).makespan
        argv = ["run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", "0.2"]
        for extra in ([], ["--mode", "two-pass", "--schedule-out", str(sched)]):
            code, out, err = _run_main(capsys, argv + extra)
            assert code == 0, (extra, err)
            report = _report_dict(out)
            assert float(report["value"]) >= optimum, extra
        schedule = _read_schedule(sched, 1)
        validate_schedule(park, schedule, stream)
        assert schedule.makespan == float(report["makespan"]) <= float(report["value"])

    def test_more_assignments_than_int_prints_is_0_and_the_oracle_5(self, capsys, tmp_path):
        # 5000 retained jobs on 8 machines: m**J = 8**5000 has 4516 digits,
        # past the 4300 that str(int) converts by default
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        code, _, _ = _run_main(capsys, [
            "generate", "--seed", "1", "--m", "8", "--m1", "1", "--e0", "0.5", "--n", "5000",
            "--config-out", str(cfg), "--jobs-out", str(jobs),
        ])
        assert code == 0
        argv = ["run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", "0.2"]
        code, out, err = _run_main(capsys, argv + ["--stats"])
        assert code == 0, err
        report = _report_dict(out)
        assert report["search_jobs"] == "5000"
        assert report["assignments"].isdigit()
        assert decimal.Decimal(report["assignments"]) == 8**5000
        code, out, err = _run_main(capsys, argv + ["--mode", "oracle"])
        assert code == 5
        assert "8**5000" in err
        assert out == ""

    @pytest.mark.parametrize("stream, position", [("-4\n", 0), ("1 nan 3\n", 1)])
    def test_two_pass_from_stdin_without_a_valid_maximum_is_3(self, capsys, instance, tmp_path,
                                                               monkeypatch, stream, position):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(stream)
        code, _, err = _run_main(
            capsys,
            ["run", "--config", cfg, *_mode_args("two-pass-stdin", jobs, monkeypatch),
             "--schedule-out", str(tmp_path / "s.csv")],
        )
        assert code == 3
        assert f"position {position}" in err

    def test_unallocatable_epsilon_is_2(self, capsys, instance):
        # the retained-job arrays would need petabytes, beyond any address space
        cfg, jobs = instance
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--epsilon", "1e-12"]
        )
        assert code == 2
        assert "retained_job_bound" in err
        assert out == ""

    def test_a_huge_epsilon_is_0(self, capsys, tmp_path):
        # at 1e308 a divisor of the band parameters overflows to inf on 8
        # floor machines; they must come out as at 1e307, not as 0
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text("m 8\nm1 8\ne0 1\n" + "".join(f"machine {i}\n" for i in range(1, 9)))
        jobs.write_text("1 2 3\n")
        reports = []
        for epsilon in ("1e307", "1e308"):
            with pytest.warns(RuntimeWarning, match="epsilon"):
                code, out, err = _run_main(capsys, [
                    "run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", epsilon,
                    "--stats"])
            assert code == 0, err
            report = _report_dict(out)
            assert (report["top_band"], report["retain_limit"]) == ("0", "1")
            reports.append({k: v for k, v in report.items()
                            if k != "epsilon" and not k.endswith("_seconds")})
        assert reports[0] == reports[1]

    def test_a_grid_past_the_largest_float_ends_at_its_last_finite_point(self, capsys,
                                                                        tmp_path):
        # at 1e308 the grid ratio 1 + eps/2 takes point 1 past the largest
        # float; point 0, P/m, is where 8 full-speed machines cover P
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text("m 8\nm1 8\ne0 1\n" + "".join(f"machine {i}\n" for i in range(1, 9)))
        jobs.write_text("3 1 4 1 5 9 2 6\n")
        reports = []
        for epsilon in ("1e307", "1e308"):
            with pytest.warns(RuntimeWarning, match="epsilon"):
                code, out, err = _run_main(capsys, [
                    "run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", epsilon,
                    "--stats"])
            assert code == 0, err
            report = _report_dict(out)
            assert report["selected_t"] == "3.875"
            reports.append({k: v for k, v in report.items()
                            if k != "epsilon" and not k.endswith("_seconds")})
        assert reports[0] == reports[1]

    def test_a_grid_that_overflows_before_any_point_fits_is_3(self, capsys, tmp_path):
        # machine 2 runs at half speed, so P/m does not cover P, and at
        # 1e308 the next point is past the largest float; at 1e307 it fits
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text("m 2\nm1 1\ne0 0.5\nmachine 1\nmachine 2 1000 0.5\n")
        jobs.write_text("3 1 4 1 5 9 2 6\n")
        argv = ["run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon"]
        with pytest.warns(RuntimeWarning, match="epsilon"):
            code, out, err = _run_main(capsys, argv + ["1e307"])
        assert code == 0, err
        assert _report_dict(out)["grid_exponent"] == "1"
        with pytest.warns(RuntimeWarning, match="epsilon"):
            code, out, err = _run_main(capsys, argv + ["1e308"])
        assert (code, out) == (3, "")
        assert "grid overflows before any point fits" in err
        assert "epsilon 1e+308" in err

    def test_budget_below_one_is_2(self, capsys, instance):
        cfg, jobs = instance
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--budget", "0"]
        )
        assert code == 2
        assert "--budget" in err
        assert out == ""

    def test_nonfinite_epsilon_is_2(self, capsys, instance):
        cfg, jobs = instance
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--epsilon", "inf"]
        )
        assert code == 2
        assert "epsilon" in err
        assert out == ""

    @pytest.mark.parametrize("flags, e0", [
        (["--epsilon", "1e-320"], "0.5"),  # the band count overflows
        (["--epsilon", "5e-324"], "0.5"),  # epsilon / 2 rounds to zero
        ([], "1e-320"),
    ])
    def test_epsilon_or_floor_too_small_to_derive_is_2(self, capsys, instance, tmp_path,
                                                       flags, e0):
        cfg, jobs = instance
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text(Path(cfg).read_text().replace("e0 0.5", f"e0 {e0}"))
        code, out, err = _run_main(capsys, ["run", "--config", str(tiny), "--jobs", jobs, *flags])
        assert code == 2
        assert "not finite" in err
        assert out == ""

    def test_epsilon_too_small_for_a_grid_is_2(self, capsys, tmp_path):
        # 1 + epsilon/2 rounds to 1, so the candidate grid has no ratio;
        # derive_params refuses before any ledger is sized
        cfg = tmp_path / "one.cfg"
        cfg.write_text("m 1\nm1 1\ne0 1\nmachine 1\n")
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 4 5\n")
        code, out, err = _run_main(
            capsys,
            ["run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", "1e-17"],
        )
        assert code == 2
        assert "rounds to 1" in err
        assert out == ""

    def test_pmax_contract_violation_is_4(self, capsys, instance, tmp_path):
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 4 99\n")
        code, _, err = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", str(jobs),
             "--regime", "pmax-given", "--pmax", "10"],
        )
        assert code == 4
        assert "position 2" in err

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_a_pmax_above_the_band_of_the_maximum_is_4(self, capsys, tmp_path, mode):
        # a --pmax 20 bands above the band of the stream's maximum is an upper
        # bound: the run exits 0, and only a job above the bound exits 4
        cfg, jobs, out_csv = tmp_path / "park.cfg", tmp_path / "jobs.txt", tmp_path / "s.csv"
        cfg.write_text("m 2\nm1 1\ne0 1\nmachine 1\nmachine 2\n")
        sched = [] if mode == "one-pass" else ["--mode", mode, "--schedule-out", str(out_csv)]
        argv = ["run", "--config", str(cfg), "--jobs", str(jobs),
                "--regime", "pmax-given", "--pmax", "1048576", *sched]
        jobs.write_text("1 1\n")
        code, out, err = _run_main(capsys, argv)
        assert code == 0, err
        assert _report_dict(out)["regime"] == "'pmax-given'"
        assert out_csv.exists() == (mode == "two-pass")
        out_csv.unlink(missing_ok=True)
        jobs.write_text("1 1 2097152\n")
        code, out, err = _run_main(capsys, argv)
        assert code == 4
        assert err == ("streamspan: error: job at position 2 has processing time 2097152.0 "
                       "above the declared p_max 1048576.0\n")
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "park.cfg"]

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass", "two-pass-stdin"])
    @pytest.mark.parametrize("flags, message", [
        # the stream's maximum, 6 at position 3, lies in the band (4, 8]
        (["--regime", "pmax-given", "--pmax", "6"], None),
        (["--regime", "pmax-given", "--pmax", "7"], None),
        (["--regime", "pmax-given", "--pmax", "8"], None),
        (["--regime", "pmax-given", "--pmax", "8.000000000000002"], None),
        (["--regime", "pmax-given", "--pmax", "5.999"], "position 3"),
        # an estimate, an upper bound on the maximum, runs with or without --pmax
        (["--regime", "pmax-unknown"], None),
        (["--regime", "pmax-given", "--pmax", "64"], None),
        (["--regime", "pmax-given", "--pmax", "64.5"], None),
        (["--regime", "pmax-given", "--pmax", "5.5"], "position 3"),
    ], ids=["pmax-at-max", "pmax-in-band", "pmax-at-band-top", "pmax-next-band", "job-above-pmax",
            "estimate-at-max", "estimate-at-reach", "estimate-past-reach", "job-above-estimate"])
    def test_each_contract_holds_to_its_edges(self, capsys, instance, tmp_path, monkeypatch,
                                              mode, flags, message):
        # a run that keeps its contract prints the default run's report but
        # for its regime; one that breaks it exits 4 and writes no schedule
        cfg, _ = instance
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 1 5 6 2\n")
        outputs = []
        for regime in ([], flags):
            out_csv = tmp_path / f"s{len(outputs)}.csv"
            sched = [] if mode == "one-pass" else ["--schedule-out", str(out_csv)]
            code, out, err = _run_main(capsys, ["run", "--config", cfg, "--stats", *regime,
                                                *_mode_args(mode, jobs, monkeypatch), *sched])
            if message is not None and regime:
                assert code == 4 and message in err and out == ""
                assert not out_csv.exists()
                return
            assert code == 0, err
            report = {k: v for k, v in _report_dict(out).items()
                      if k not in ("regime", "schedule_path") and not k.endswith("_seconds")}
            outputs.append((report, out_csv.exists() and out_csv.read_bytes()))
        assert message is None and outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode, flags, message", [
        ("one-pass", ["--pmax", "10"],
         "regime pmax-unknown does not take a largest processing time (--pmax)"),
        ("one-pass", ["--regime", "pmax-given"],
         "regime pmax-given needs a largest processing time (--pmax)"),
        ("two-pass", ["--regime", "pmax-unknown", "--pmax", "16"],
         "regime pmax-unknown does not take a largest processing time (--pmax)"),
        ("one-pass", ["--regime", "pmax-unknown", "--pmax", "16"],
         "regime pmax-unknown does not take a largest processing time (--pmax)"),
        ("two-pass", ["--regime", "pmax-given"],
         "regime pmax-given needs a largest processing time (--pmax)"),
        ("two-pass-stdin", ["--pmax", "5"],
         "regime pmax-unknown does not take a largest processing time (--pmax)"),
        ("oracle", ["--pmax", "16"], "--pmax only applies to one-pass and two-pass modes"),
        ("oracle", ["--regime", "pmax-given", "--pmax", "1"], "--regime only applies"),
    ])
    def test_a_regime_flag_the_run_does_not_read_is_2(self, capsys, instance, tmp_path,
                                                       monkeypatch, mode, flags, message):
        cfg, jobs = instance
        out_csv = tmp_path / "s.csv"
        sched = ["--schedule-out", str(out_csv)] if "two-pass" in mode else []
        code, out, err = _run_main(
            capsys, ["run", "--config", cfg, *_mode_args(mode, jobs, monkeypatch), *flags, *sched]
        )
        assert code == 2
        assert message in err
        assert out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag", ["--pmax-estimate", "--alpha"])
    def test_the_estimate_flags_are_gone_and_2(self, capsys, instance, flag):
        # an upper bound on the maximum runs without --pmax (README "Regimes");
        # --regime pmax-estimate is test_pipeline's test_unknown_regime_lists_the_choices
        cfg, jobs = instance
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--config", cfg, "--jobs", jobs, flag, "8"])
        out, err = capsys.readouterr()
        assert exc_info.value.code == 2 and f"unrecognized arguments: {flag} 8" in err
        assert out == ""

    def test_budget_exhaustion_is_5(self, capsys, instance):
        cfg, jobs = instance
        code, _, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--budget", "1"]
        )
        assert code == 5
        assert "budget 1" in err

    @pytest.mark.parametrize("fault, code", [
        ("a spill that fails to read", 2),
        ("a spill that lost a large job", 1),
        ("an unparsable token", 3),
        ("a declared maximum broken", 4),
    ])
    def test_a_failed_run_leaves_no_file_and_keeps_the_old_one(
        self, capsys, tmp_path, monkeypatch, fault, code
    ):
        # blocks of 4 characters: the second pass writes rows before a
        # fault in its last block
        monkeypatch.setattr(textio, "_READ_CHARS", 4)
        config_text, jobs_text = generate_instance(21, 2, 1, 0.5, 60)
        cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
        cfg.write_text(config_text)
        if fault == "an unparsable token":
            jobs_text = " ".join(jobs_text.split()[:-1] + ["x"])
        jobs.write_text(jobs_text)
        if fault == "a spill that fails to read":
            _spill_files(monkeypatch, "read")
        elif fault == "a spill that lost a large job":
            _spill_files(monkeypatch, "halve")
        out_csv = tmp_path / "s.csv"
        out_csv.write_bytes(b"an earlier schedule\r\n")
        flags = ["--regime", "pmax-given", "--pmax", "1" if code == 4 else "16"]
        status, out, err = _run_main(
            capsys,
            ["run", "--config", str(cfg), "--jobs", str(jobs), "--mode", "two-pass",
             *flags, "--schedule-out", str(out_csv)],
        )
        assert status == code, err
        assert out == ""
        assert out_csv.read_bytes() == b"an earlier schedule\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "park.cfg", "s.csv"]

    @pytest.mark.parametrize("run", ["two-pass", "two-pass-stdin"])
    def test_a_spill_folder_that_is_missing_is_2_and_keeps_the_old_schedule(
        self, capsys, instance, tmp_path, monkeypatch, run
    ):
        cfg, jobs = instance
        missing = tmp_path / "no-such-folder"
        monkeypatch.setenv("TMPDIR", str(missing))
        out_csv = tmp_path / "s.csv"
        out_csv.write_bytes(b"an earlier schedule\r\n")
        code, out, err = _run_main(capsys, [
            "run", "--config", cfg, *_mode_args(run, jobs, monkeypatch),
            "--schedule-out", str(out_csv)])
        assert (code, out) == (2, "")
        assert f"spill file in {missing}: No such file or directory" in err
        assert out_csv.read_bytes() == b"an earlier schedule\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "park.cfg", "s.csv"]
        # a one-pass run makes no spill
        code, out, err = _run_main(capsys, ["run", "--config", cfg, "--jobs", jobs])
        assert code == 0, err

    def test_a_spill_that_fills_up_is_2(self, capsys, instance, tmp_path, monkeypatch):
        cfg, jobs = instance
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        _spill_files(monkeypatch, "write")
        code, out, err = _run_main(capsys, [
            "run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
            "--schedule-out", str(tmp_path / "s.csv")])
        assert (code, out) == (2, "")
        assert f"spill file in {tmp_path}: No space left on device" in err
        assert not (tmp_path / "s.csv").exists()

    def test_the_spill_leaves_its_folder_empty(self, capsys, instance, tmp_path, monkeypatch):
        cfg, jobs = instance
        folder = tmp_path / "spill"
        folder.mkdir()
        monkeypatch.setenv("TMPDIR", str(folder))
        made = _spill_files(monkeypatch)
        bad = tmp_path / "bad.txt"
        bad.write_text(Path(jobs).read_text() + " 1 x 2\n")  # a bad token mid-stream
        for stream, want in ((jobs, 0), (str(bad), 3)):
            code, _, err = _run_main(capsys, [
                "run", "--config", cfg, "--jobs", stream, "--mode", "two-pass",
                "--schedule-out", str(tmp_path / "s.csv")])
            assert code == want, err
            assert list(folder.iterdir()) == []
        assert [(f.dir, f.closed) for f in made] == [(str(folder), True)] * 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("run", ["two-pass", "two-pass-stdin"])
    def test_a_schedule_out_that_fills_up_is_2(self, capsys, instance, monkeypatch, run):
        cfg, jobs = instance
        code, out, err = _run_main(
            capsys,
            ["run", "--config", cfg, *_mode_args(run, jobs, monkeypatch),
             "--schedule-out", "/dev/full"],
        )
        assert code == 2
        assert err == (
            "streamspan: error: cannot write the schedule to /dev/full: No space left on device\n"
        )
        assert out == ""

    @pytest.mark.parametrize("failing_read", [1, 2])
    def test_a_job_stream_that_fails_to_read_is_2_and_no_write_error(
        self, capsys, instance, tmp_path, monkeypatch, failing_read
    ):
        # the second read, of the first pass's spill, runs while the
        # schedule is being written
        cfg, jobs = instance
        reason = os.strerror(errno.EIO)
        if failing_read == 1:

            class Failing(io.StringIO):
                def read(self, *args):
                    raise OSError(errno.EIO, reason)

            real_open = open
            monkeypatch.setattr("builtins.open", lambda path, *a, **kw: (
                Failing() if str(path) == jobs else real_open(path, *a, **kw)))
            message = f"cannot read job stream {jobs}: {reason}"
        else:
            monkeypatch.setenv("TMPDIR", str(tmp_path))
            _spill_files(monkeypatch, "read")
            message = f"cannot use a spill file in {tmp_path}: {reason}"
        out_csv = tmp_path / "s.csv"
        code, out, err = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
             "--schedule-out", str(out_csv)],
        )
        assert code == 2
        assert err == f"streamspan: error: {message}\n"
        assert out == ""
        assert not out_csv.exists()

    def test_a_written_schedule_replaces_the_old_file(self, capsys, instance, tmp_path):
        cfg, jobs = instance
        out_csv = tmp_path / "s.csv"
        out_csv.write_bytes(b"an earlier schedule\r\n")
        code, out, _ = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
             "--schedule-out", str(out_csv)],
        )
        assert code == 0
        assert out_csv.read_text().startswith("job_id,machine,start,completion")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.txt", "park.cfg", "s.csv"]

    def test_schedule_flag_misuse_is_2(self, capsys, instance, tmp_path):
        cfg, jobs = instance
        code, _, err = _run_main(
            capsys, ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass"]
        )
        assert code == 2 and "--schedule-out" in err
        code, _, err = _run_main(
            capsys,
            ["run", "--config", cfg, "--jobs", jobs,
             "--schedule-out", str(tmp_path / "x.csv")],
        )
        assert code == 2 and "only applies" in err

    def test_oversized_ledger_is_2(self, capsys, tmp_path):
        # e0 1e-5 at epsilon 3e-16 derives a retain limit of ~1.3e21: numpy
        # refuses a ledger this large before allocating any of it
        cfg = tmp_path / "one.cfg"
        cfg.write_text("m 1\nm1 1\ne0 1e-5\nmachine 1\n")
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("3 4 5\n")
        code, out, err = _run_main(
            capsys, ["run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", "3e-16"]
        )
        assert code == 2
        assert "cannot allocate" in err and "retained_job_bound" in err
        assert out == ""

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2


class TestGenerateCommand:
    def test_writes_both_files(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        jobs = tmp_path / "j.txt"
        code, out, _ = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5",
             "--n", "5", "--config-out", str(cfg), "--jobs-out", str(jobs)],
        )
        assert code == 0
        assert f"config: {cfg}" in out and f"jobs: {jobs}" in out
        park = parse_machine_config(str(cfg))
        assert park.m == 2
        assert len(jobs.read_text().split()) == 5

    @pytest.mark.parametrize("flag", ["--config-out", "--jobs-out"])
    def test_unwritable_output_is_2(self, capsys, tmp_path, flag):
        paths = {"--config-out": str(tmp_path / "c"), "--jobs-out": str(tmp_path / "j")}
        paths[flag] = str(tmp_path / "nodir" / "x")
        code, out, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5", "--n", "5",
             "--config-out", paths["--config-out"], "--jobs-out", paths["--jobs-out"]],
        )
        assert code == 2
        assert err == f"streamspan: error: cannot write {paths[flag]}: No such file or directory\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []  # neither file, nor a temporary one

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_an_output_that_fills_up_is_2_and_leaves_neither_file(self, capsys, tmp_path):
        code, out, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5", "--n", "5",
             "--config-out", str(tmp_path / "c"), "--jobs-out", "/dev/full"],
        )
        assert code == 2
        assert err == "streamspan: error: cannot write /dev/full: No space left on device\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_one_file_for_both_outputs_is_2_and_writes_nothing(self, capsys, tmp_path):
        config = tmp_path / "c.txt"
        link, hard = tmp_path / "link.txt", tmp_path / "hard.txt"
        link.symlink_to(config)
        for exists in (False, True):
            if exists:  # a hard link is the same file only once it exists
                config.write_text("an earlier file\n")
                os.link(config, hard)
            for jobs_out in (config, link) + ((hard,) if exists else ()):
                code, out, err = _run_main(
                    capsys,
                    ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5",
                     "--n", "5", "--config-out", str(config), "--jobs-out", str(jobs_out)],
                )
                assert code == 2
                assert err == f"streamspan: error: cannot write {jobs_out}: it is also the config output\n"
                assert out == ""
                assert config.exists() == exists
                assert not exists or config.read_text() == "an earlier file\n"

    def test_bad_intervals_flag_is_2(self, capsys, tmp_path):
        code, _, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5",
             "--n", "5", "--config-out", str(tmp_path / "c"), "--jobs-out",
             str(tmp_path / "j"), "--intervals", "three"],
        )
        assert code == 2
        assert "LO:HI" in err

    def test_bad_m1_is_2(self, capsys, tmp_path):
        code, _, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "3", "--e0", "0.5",
             "--n", "5", "--config-out", str(tmp_path / "c"), "--jobs-out",
             str(tmp_path / "j")],
        )
        assert code == 2
        assert "m1 must be in [1, 2]" in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "j").exists()

    def test_no_machines_is_2(self, capsys, tmp_path):
        code, _, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "0", "--m1", "0", "--e0", "0.5",
             "--n", "5", "--config-out", str(tmp_path / "c"), "--jobs-out",
             str(tmp_path / "j")],
        )
        assert code == 2
        assert "m must be >= 1, got 0" in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "j").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--n", "-3", "job count must be >= 0"),
         ("--e0", "-0.5", "e0 must be in (0, 1]"),
         ("--e0", "0", "e0 must be in (0, 1]"),
         ("--jobs-max", "0", "jobs-max must be >= 1"),
         ("--ratios", "0.5,2", "ratio choice 2.0 outside (0, 1]"),
         ("--ratios", "a,b", "--ratios must be comma-separated numbers"),
         ("--intervals", "0:30", "cannot fit in [1, 20]"),
         ("--ratios", "0.25", "no ratio choice is >= e0")],
    )
    def test_instance_that_run_refuses_is_2(self, capsys, tmp_path, flag, value, message):
        # the last of a repeated flag wins
        code, _, err = _run_main(
            capsys,
            ["generate", "--seed", "7", "--m", "2", "--m1", "1", "--e0", "0.5",
             "--n", "5", "--config-out", str(tmp_path / "c"), "--jobs-out",
             str(tmp_path / "j"), flag, value],
        )
        assert code == 2
        assert message in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "j").exists()


def test_importing_the_package_leaves_the_cli_out():
    code = "import sys, streamspan; sys.exit('streamspan.cli' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("module", ["streamspan", "streamspan.cli"])
@pytest.mark.parametrize("collecting", [True, False])
def test_importing_leaves_the_collector_as_it_was(module, collecting):
    # the CLI freezes what its imports built; neither import may turn the collector on or off
    code = (f"import gc; gc.{'enable' if collecting else 'disable'}(); import {module}; "
            "print(gc.isenabled())")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(collecting)]


_FOOTPRINT = """
import gc, json, sys
sys.modules.pop("random", None)  # the interpreter's site hooks may load it
watched = ("streamspan.schedule", "streamspan.oracle", "random")
loaded = lambda: [name for name in watched if name in sys.modules]
import streamspan.cli as cli
seen = {"import": loaded(), "frozen": gc.get_freeze_count()}
argv = ["run", "--config", sys.argv[1], "--jobs", sys.argv[2], "--stats"]
seen["one-pass"] = (cli.main(argv), loaded())
seen["two-pass"] = (cli.main(argv + ["--mode", "two-pass", "--schedule-out", sys.argv[3]]),
                    loaded())
print(json.dumps(seen))
"""


def test_a_one_pass_process_loads_only_what_it_runs(tmp_path):
    # the imports and the objects they build are a fixed cost of every run:
    # a one-pass run loads neither the second pass, nor the oracle, nor the
    # generator's random, a two-pass run loads the second pass alone, and
    # the import-time heap is frozen out of the collections, the one at
    # exit included
    config_text, jobs_text = generate_instance(3, 3, 1, 0.5, 300)
    cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
    cfg.write_text(config_text)
    jobs.write_text(jobs_text)
    res = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(cfg), str(jobs), str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["frozen"] > 0
    assert seen["one-pass"] == [0, []]
    assert seen["two-pass"] == [0, ["streamspan.schedule"]]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no C library to load by name
        return False


# after the CLI is imported, allocate and free three ~700 KB arrays a round,
# the size of a stream block's temporaries, and print each round's minor
# page faults
_CHURN = """
import json, resource
import numpy as np
import streamspan.cli
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(90_000) for _ in range(3)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_freed_block_memory_stays_in_the_heap():
    # the CLI's allocator thresholds keep freed arrays in the heap, so only
    # the first round faults its pages in; glibc's defaults serve these
    # sizes from fresh mmaps or trim them, some 300 faults every round
    res = subprocess.run([sys.executable, "-c", _CHURN],
                         capture_output=True, text=True, env=_ENV, timeout=120)
    assert res.returncode == 0, res.stderr
    faults = json.loads(res.stdout)
    assert sum(faults[1:]) < 60, faults


# run argv[2:] from this small process and print its exit code and peak RSS
# in KiB: a child's ru_maxrss starts from its launcher's, and pytest's is large
_PEAK = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
err = proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, err)
"""


def test_a_rising_stream_costs_no_more_memory_than_a_declared_maximum(tmp_path):
    # 32 machines at eps 0.02 retain up to 14 * 409,600 jobs, 92 MB of
    # slots; each of the 11 rebases moves only the jobs the window holds,
    # so the slots are touched no more than under a declared maximum
    cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
    cfg.write_text("m 32\nm1 1\ne0 0.5\n" + "".join(f"machine {i}\n" for i in range(1, 33)))
    jobs.write_text(" ".join(str(2**k) for k in range(12)) + "\n")
    peaks = []
    for regime in ([], ["--regime", "pmax-given", "--pmax", "2048"]):
        res = subprocess.run(
            [sys.executable, "-c", _PEAK, sys.executable, "-c",
             "import sys; from streamspan.cli import main; sys.exit(main())",
             "run", "--config", str(cfg), "--jobs", str(jobs), "--epsilon", "0.02", *regime],
            capture_output=True, text=True, env=_ENV, timeout=120,
        )
        code, peak_kib, err = res.stdout.split(" ", 2)
        assert res.returncode == 0 and code == "0", (res.stderr, err)
        peaks.append(int(peak_kib) / 1024)
    assert peaks[0] - peaks[1] < 10, peaks


def test_every_export_resolves():
    for info in pkgutil.iter_modules(streamspan.__path__):
        name = f"streamspan.{info.name}"
        module = importlib.import_module(name)
        for export in vars(module).get("__all__", ()):
            assert hasattr(module, export), (name, export)
        exec(f"from {name} import *", {})
    for export in streamspan.__all__:
        assert hasattr(streamspan, export), export
    # the names the package loads on first use are their modules' own objects
    for export, owner in (("exact_optimum", "oracle"), ("Schedule", "schedule"),
                          ("second_pass", "schedule"), ("validate_schedule", "schedule")):
        module = importlib.import_module(f"streamspan.{owner}")
        assert getattr(streamspan, export) is getattr(module, export), export
    with pytest.raises(AttributeError, match="no_such_name"):
        streamspan.no_such_name
    assert not hasattr(streamspan, "no_such_name")
    # a star import, the first use in a fresh interpreter, binds every name
    code = ("import streamspan; names = {}; exec('from streamspan import *', names); "
            "print(sorted(set(streamspan.__all__) - set(names)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_benchmark_scripts_import(monkeypatch):
    # each script's main runs only under __main__, so loading it checks
    # that every name it imports from the package still exists; the
    # scripts' folder leads the path, as when one runs as a script
    folder = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(folder))
    scripts = sorted(folder.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        spec = importlib.util.spec_from_file_location(f"_bench_{script.stem}", script)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_the_benchmark_hooks_see_every_call(capsys, instance, tmp_path, monkeypatch):
    # perfbench times these layers by replacing the module globals their
    # callers resolve, and benchmarks/makespan_gap.py captures reports the
    # same way
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    hooks = ((cli_mod, "run_stream"), (cli_mod, "write_schedule_csv"),
             (search_mod, "search_assignments"))
    for module, name in hooks:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    cfg, jobs = instance
    code, _, err = _run_main(
        capsys,
        ["run", "--config", cfg, "--jobs", jobs, "--mode", "two-pass",
         "--schedule-out", str(tmp_path / "s.csv")],
    )
    assert code == 0, err
    assert calls.count("run_stream") == 1
    assert calls.count("write_schedule_csv") == 1
    assert calls.count("search_assignments") >= 1


def test_the_benchmark_tracer_records_every_stage(tmp_path):
    config_text, jobs_text = generate_instance(21, 3, 1, 0.5, 2000)
    cfg, jobs = tmp_path / "park.cfg", tmp_path / "jobs.txt"
    cfg.write_text(config_text)
    jobs.write_text(jobs_text)
    spans = tmp_path / "spans.json"
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    res = subprocess.run(
        [sys.executable, str(tracer), str(spans), "run", "--config", str(cfg), "--jobs",
         str(jobs), "--mode", "two-pass", "--schedule-out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    stages = {"cli.main", "pipeline.run_stream", "grouping.ingest_many", "grouping.finalize",
              "search.enumerate_and_select", "cli.write_schedule_csv"}
    assert stages <= names, stages - names


def test_the_benchmark_output_checks_hold_on_a_small_run(capsys, tmp_path, monkeypatch):
    # perfbench judges each run with these checks, which read the oracle's
    # replay, derive_params and MachineTimeline; a run they refuse shows
    # there only as outputs_incorrect
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(21)
    jobs = rng.integers(1, workloads.PMAX + 1, size=2000)
    horizon = int(2 * jobs.sum() / workloads.PARK_M)
    park = workloads.Park(
        tuple(np.sort(rng.choice(horizon, size=4, replace=False) + 1).astype(np.float64)
              for _ in range(workloads.PARK_M)),
        tuple(rng.choice(workloads.FLOOR_RATIOS if i < workloads.PARK_M1
                         else workloads.SHARED_RATIOS, size=4)
              for i in range(workloads.PARK_M)),
    )
    inputs = workloads.Inputs(
        workload=workloads.WORKLOADS["twopass-dense-1m"], seed=21,
        jobs=jobs.astype(np.float64), park=park, config=tmp_path / "park.cfg",
        jobs_file=tmp_path / "jobs.txt", empty_jobs=tmp_path / "empty.txt",
        schedule_out=tmp_path / "schedule.csv",
    )
    inputs.config.write_text(park.config_text())
    inputs.jobs_file.write_text("\n".join(map(str, jobs.tolist())) + "\n")
    code, out, err = _run_main(capsys, inputs.argv())
    assert code == 0, err
    report = checks.parse_report(out)
    assert checks.check_report(report, inputs) == []
    assert checks.check_schedule(inputs.schedule_out, report, inputs) == []
    rows = inputs.schedule_out.read_text().split("\n")
    fields = rows[1].split(",")
    fields[3] = repr(float(fields[3]) + 1.0)
    rows[1] = ",".join(fields)
    altered = tmp_path / "altered.csv"
    altered.write_text("\n".join(rows))
    assert checks.check_schedule(altered, report, inputs) != []
