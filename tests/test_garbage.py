"""Runs leave no cyclic garbage: reference counting frees each one whole.

A checked stack whose nodes pointed back at it, or a generator that held
itself through a closure, would leave every run to the cyclic collector,
whose pauses then land in the middle of an exploration.  Each path below is
warmed up once (imports, caches), then called a few times with the
collector off; a collection afterwards must find nothing to free.
"""

from __future__ import annotations

import gc

import pytest

from multistack import harness, simulator
from multistack.cli import main
from multistack.harness import RunConfig


def explore_one_mix():
    scenario = simulator.plan((), [(1, 1), (1, None), (2, None), (2, 2)])  # PUSH POP | POP PUSH
    for _ in simulator.explore(scenario):
        pass


def sweep_2x1():
    simulator.sweep_family(2, 1)


def replay_fixture():
    simulator.replay_scenario(simulator.load_bundled_fixture("shared_pop"))


def walk_configs():
    for _ in simulator.reachable_configs(simulator.load_bundled_fixture("push_helps")):
        pass


def fork_midway():
    run = simulator.Run(simulator.load_bundled_fixture("shared_pop"), (1, 2))
    fork = run.fork()
    for twin, pick in ((run, 0), (fork, -1)):
        while enabled := twin.enabled():
            twin.take(enabled[pick])
        twin.check_chain()


def probe_stall():
    scenario = simulator.load_bundled_fixture("shared_pop")
    for stalled in range(len(scenario.programs)):
        simulator.progress_probe(scenario, scenario.schedule[:2], stalled)


def stress(impl: str):
    return lambda: harness.run_stress(RunConfig(impl=impl, threads=2, ops_per_thread=64))


PATHS = {
    "explore": explore_one_mix,
    "sweep_family": sweep_2x1,
    "replay_scenario": replay_fixture,
    "reachable_configs": walk_configs,
    "fork": fork_midway,
    "progress_probe": probe_stall,
    "run_stress-relaxed": stress("relaxed"),
    "run_stress-baseline": stress("baseline"),
}


def assert_no_cyclic_garbage(call, calls: int = 3) -> None:
    call()
    gc.collect()
    gc.disable()
    try:
        for _ in range(calls):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("path", PATHS)
def test_runs_leave_no_cyclic_garbage(path):
    assert_no_cyclic_garbage(PATHS[path])


def test_stress_then_check_leaves_no_cyclic_garbage(tmp_path, capsys):
    history = tmp_path / "h.txt"

    def round_trip():
        assert main(["stress", "-t", "2", "-n", "64", "--seed", "3", "-o", str(history)]) == 0
        assert main(["check", str(history), "--max-ops", "128"]) == 0
        capsys.readouterr()

    assert_no_cyclic_garbage(round_trip)
