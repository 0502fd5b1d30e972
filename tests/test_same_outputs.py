"""benchmarks/same_outputs.py on a slice of its corpus, run against the
working tree itself, so that the harness cannot rot."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        "_same_outputs", ROOT / "benchmarks" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_corpus_covers_every_mode_park_size_and_error(harness):
    cases = harness.corpus()
    assert len({case.name for case in cases}) == len(cases) == 160 + 16
    assert {case.mode for case in cases} == set(harness.MODES)
    assert {case.config.split("\n")[0] for case in cases} == {f"m {m}" for m in range(1, 9)}
    assert {case.name.split(", ")[2] for case in cases[:160]} == {"integer", "scaled", "sorted"}
    flags = {flag for case in cases for flag in case.flags}
    assert {"pmax-given", "pmax-unknown", "--stats"} <= flags
    assert harness.corpus() == cases  # seeded


def test_the_working_tree_gives_its_own_outputs(harness):
    cases = harness.corpus(8)
    cases = cases[:8] + cases[8::5]  # each error stream, in a different mode
    src = str(ROOT / "src")
    assert harness.compare(src, src, cases) == {}


def test_a_difference_is_reported_unless_masked(harness):
    before = harness.Outputs(0, "value: 1.0\nwall_seconds: 0.1\n", "", b"job_id\r\n")
    retimed = before._replace(stdout="value: 1.0\nwall_seconds: 0.3\n")
    assert harness.differences(before, retimed) == []
    after = before._replace(stdout="value: 1.0000000000000002\nwall_seconds: 0.2\n")
    assert harness.differences(before, after) == [
        "stdout:\n    - value: 1.0\n    + value: 1.0000000000000002"]
    assert harness.differences(before, after, mask=["value"]) == []
    failed = after._replace(code=3, stderr="streamspan: error: x\n", csv=None)
    assert [d.split(maxsplit=1)[0] for d in harness.differences(before, failed)] == [
        "exit", "stdout:", "stderr:", "schedule"]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs the git repository")
def test_a_revision_is_extracted_from_the_repository(harness, tmp_path):
    src = Path(harness.extract_src("HEAD", str(tmp_path)))
    assert (src / "streamspan" / "cli.py").is_file()
