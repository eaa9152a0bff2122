"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_named_metric(workload, trace):
    report = run.measure(workload, seed=3, seconds=0.2, trace=trace, spec=SPEC, size_name="TINY")
    result = report["result"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio = 0/") for line in report["lines"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _pop_of_unpushed_id(path: Path) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[3:5] == ["RES", "POP"]:
            fields[5] = "v:1#999999"
            lines[i] = " ".join(fields)
            break
    else:
        raise AssertionError("history has no pop to tamper with")
    path.write_text("\n".join(lines) + "\n")


def test_tampered_history_is_counted_as_failed(tmp_path):
    outcome = workloads.stress_phase(
        [11, 12], workloads.TINY, 0, tmp_path, count=2, tamper=_pop_of_unpushed_id
    )
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert all("check exited 1" in problem for problem in outcome.problems)


def test_untampered_histories_pass(tmp_path):
    outcome = workloads.stress_phase([11, 12], workloads.TINY, 0, tmp_path, count=2)
    assert (outcome.attempted, outcome.failed) == (2, 0)


def test_conservation_allows_shared_returns_and_flags_the_rest():
    assert workloads.conservation_problems([1, 2, 3], [1, 1, 2], [3]) == []
    assert "never pushed" in workloads.conservation_problems([1, 2], [1, 7], [2])[0]
    assert "neither popped" in workloads.conservation_problems([1, 2], [1], [])[0]
    assert "both popped" in workloads.conservation_problems([1, 2], [1, 2], [2])[0]


def test_wrong_family_counts_are_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.FAMILY_COUNTS, (2, 1), (31, 14, 0))
    mixes = workloads.prepare("explore-2x2", 0, workloads.TINY)
    outcome = workloads.explore_phase(mixes, workloads.TINY)
    assert outcome.failed == 1 and "expected (31, 14, 0)" in outcome.problems[0]


def test_tail_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 10_001)]) == (9900.0, 99.0, 100)


def test_stack_seed_is_cleared(monkeypatch, capsys):
    monkeypatch.setenv("STACK_SEED", "7")
    assert run.main(["--workload", "stress-check", "--seed", "1", "--seconds", "0"]) == 0
    assert "STACK_SEED" not in os.environ
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]


def test_correction_scales_by_nearby_spins_and_drops_spins_inside():
    ref = hostspeed.REF_SPIN_S
    speed = hostspeed.HostSpeed()
    # A spin at twice the quiet time inside the item, one at three times
    # far away from it.
    speed.at.extend([10.05, 20.0])
    speed.spins.extend([2 * ref, 3 * ref])
    assert speed.correct(10.0, 0.1 + 2 * ref) == pytest.approx(0.05)
    # No spin within NEAR_S: the closest one sets the speed.
    assert speed.correct(19.0, 0.3) == pytest.approx(0.1)
    assert hostspeed.HostSpeed().correct(1.0, 0.3) == 0.3  # nothing sampled


def test_sampling_spins_beside_the_work_and_restores_the_signal():
    speed = hostspeed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(speed.spins) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    speed.probe_cpus()
    assert len(speed.spins) >= 6
