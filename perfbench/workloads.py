"""Benchmark workloads: synthetic scenarios, CLI flags and output expectations.

Every workload generates its trace with ``streamdeg.trace_io.generate_synthetic``
from a scenario dictionary in the JSON form that ``streamdeg synth`` reads, so
the program only ever sees generated input files.  See README.md in this
directory for why each workload exists and which layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass

# Demo-style injections (network scan, fan-in, degree spike), placed at the
# same relative positions as in scripts/demo_pipeline.py.


def _injections(duration: int, scan: int, fanin: int, spike: int) -> list[dict]:
    out = [
        {"kind": "scan", "source": "scanner", "targets": scan,
         "window": [duration // 2, duration // 2 + 2]},
        {"kind": "spike", "node": "burst", "level": spike,
         "window": [duration // 6, duration // 6 + 2]},
    ]
    if fanin:
        at = duration * 7 // 10
        out.insert(1, {"kind": "fanin", "dest": "sink", "sources": fanin, "window": [at, at + 2]})
    return out


def _spikes(duration: int, count: int, level: int) -> list[dict]:
    """``count`` more degree spikes on distinct nodes, spread evenly."""
    starts = [(i + 1) * duration // (count + 2) for i in range(count)]
    return [{"kind": "spike", "node": f"burst{i}", "level": level, "window": [at, at + 2]}
            for i, at in enumerate(starts)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; expectations left at ``None`` are recorded
    but not asserted."""

    name: str
    scenario: dict
    analyze_flags: tuple[str, ...] = ()
    config_flags: tuple[str, ...] = ()
    compare: bool = True
    expect_precision: float | None = None
    expect_recall: float | None = None
    expect_reidentify_applied: int | None = None
    expect_fewer_outlying: bool = False

    @property
    def normalized(self) -> bool:
        return "--normalized" in self.config_flags


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="regular-bulk",
            scenario={
                "duration": 600, "background_nodes": 220, "background_degree": 4,
                "background_model": "regular",
                "injections": _injections(600, scan=5000, fanin=300, spike=150),
            },
            analyze_flags=("--power-law", "--bootstrap-count", "100"),
            expect_precision=1.0,
            expect_recall=1.0,
            expect_reidentify_applied=0,
            expect_fewer_outlying=True,
        ),
        # the removal loop on a background whose size does not depend on the
        # seed: every spike is one more removal attempt, each a full re-detection
        Workload(
            name="regular-removal",
            scenario={
                "duration": 600, "background_nodes": 220, "background_degree": 4,
                "background_model": "regular",
                "injections": _injections(600, scan=1000, fanin=300, spike=150)
                + _spikes(600, count=45, level=40),
            },
            expect_precision=1.0,
            expect_recall=1.0,
            expect_reidentify_applied=0,
        ),
        # runs by name but is not listed in BENCHMARK.json: the number of
        # removal attempts, and so the cost of identify, depends on the seed
        Workload(
            name="poisson-removal",
            scenario={
                "duration": 200, "background_nodes": 120, "background_model": "poisson",
                "injections": _injections(200, scan=5000, fanin=300, spike=150),
            },
            expect_recall=1.0,
            expect_reidentify_applied=0,
        ),
        # runs by name but is not listed in BENCHMARK.json: injections this
        # large against a 40-node background make identify roll back the
        # spike's removal at about half the seeds, and re-identify then applies
        # further removals (an open defect); both checks stay asserted
        Workload(
            name="poisson-rollback",
            scenario={
                "duration": 60, "background_nodes": 40, "background_model": "poisson",
                "injections": _injections(60, scan=1000, fanin=300, spike=150),
            },
            expect_recall=1.0,
            expect_reidentify_applied=0,
        ),
        # runs by name but is not listed in BENCHMARK.json: re-identify repeats
        # an open defect whose amount of work varies too much across seeds
        Workload(
            name="circadian-normalized",
            scenario={
                "duration": 60, "background_nodes": 20, "background_model": "poisson",
                "rate_modulation": "circadian", "rate_low": 0.8, "high_fraction": 0.0,
                "injections": _injections(60, scan=200, fanin=0, spike=40),
            },
            analyze_flags=("--ks-report",),
            config_flags=("--normalized",),
            compare=False,
        ),
        # a tiny scenario for the harness's own smoke tests; not a benchmark workload
        Workload(
            name="smoke",
            scenario={
                "duration": 20, "background_nodes": 20, "background_degree": 4,
                "background_model": "regular",
                "injections": _injections(20, scan=200, fanin=30, spike=15),
            },
        ),
    ]
}
