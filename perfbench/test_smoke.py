"""Smoke tests of the benchmark harness on a tiny scenario.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_scenario_reports_every_metric(trace, kind):
    done = bench(["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[kind])
    for metric in spec[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(["--workload", "regular-bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_excludes_child_spans():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from traced import Span, self_times

    spans = [
        Span("cli.identify", None, 0.0, 10.0),
        Span("trace_io.parse", 0, 1.0, 3.0),
        Span("pipeline.identify", 0, 3.0, 9.0),
        Span("slicing.matrix", 2, 4.0, 5.0),
    ]
    got = self_times(spans)
    assert (got["cli"], got["trace_io"], got["pipeline"], got["slicing"]) == (2.0, 2.0, 5.0, 1.0)
