"""The live fast path against the per-line transitions the simulator steps.

RelaxedStack.push/pop run on real threads, each parked in its trace hook
after every shared action, and are released one thread per slot in the
order of a schedule the simulator drew.  Both texts must then agree on
every thread's returns and line sequence and on the final memory.
"""

from __future__ import annotations

import random
import threading

import pytest

from multistack.history import EventKind, OpName
from multistack.simulator import (
    Run,
    Scenario,
    load_bundled_fixture,
    plan,
    replay_scenario,
    uniform_run,
)

TIMEOUT = 5.0
SCENARIOS = 400


class _Parking:
    """One live thread's slot gate and what it observed."""

    def __init__(self) -> None:
        self.go = threading.Semaphore(0)
        self.parked = threading.Semaphore(0)
        self.lines: list[int] = []
        self.returns: list = []


def run_live(scenario: Scenario, schedule):
    """Run the scenario's programs on the fast path, one slot per schedule
    entry.  Returns per-thread lines, per-thread returns, final memory."""
    stack = Run(scenario).stack  # the simulator's seeded memory, untouched
    free = threading.Event()
    parkings = [_Parking() for _ in scenario.programs]

    def worker(parking: _Parking, program) -> None:
        def hook(line: int) -> None:
            parking.lines.append(line)
            # The load at 16 shares its slot with the test at 17.
            if line != 16 and not free.is_set():
                parking.parked.release()
                parking.go.acquire(timeout=TIMEOUT)

        parking.go.acquire(timeout=TIMEOUT)
        for op in program:
            if op.name is OpName.PUSH:
                parking.returns.append(stack.push(op.element, trace=hook))
            else:
                parking.returns.append(stack.pop(trace=hook))
        parking.parked.release()

    threads = [
        threading.Thread(target=worker, args=(parking, program), daemon=True)
        for parking, program in zip(parkings, scenario.programs)
    ]
    for thread in threads:
        thread.start()
    try:
        for slot, entry in enumerate(schedule):
            parking = parkings[entry - 1]
            parking.go.release()
            assert parking.parked.acquire(timeout=TIMEOUT), f"slot {slot + 1} never parked"
    finally:
        free.set()  # what is left of each operation is private work
        for parking in parkings:
            parking.go.release()
        for thread in threads:
            thread.join(TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    return (
        [parking.lines for parking in parkings],
        [parking.returns for parking in parkings],
        stack.memory_snapshot(),
    )


def simulated(run: Run, history) -> tuple:
    lines = [[] for _ in run.threads]
    for event in history.events:
        if event.kind is EventKind.STEP:
            lines[event.process - 1].append(event.payload)
    return lines, [state.returns for state in run.threads], run.stack.memory_snapshot()


def random_scenario(rng: random.Random) -> Scenario:
    memory = [(rng.randint(1, 9), rng.random() < 0.4) for _ in range(rng.randint(0, 3))]
    ops = [
        (thread, rng.randint(1, 9) if rng.random() < 0.5 else None)
        for thread in range(1, rng.randint(2, 3) + 1)
        for _ in range(rng.randint(1, 2))
    ]
    return plan(memory, ops)


def test_fast_path_follows_the_step_text_on_random_schedules():
    rng = random.Random(20260518)
    for index in range(SCENARIOS):
        scenario = random_scenario(rng)
        run, history = uniform_run(scenario, rng)
        live = run_live(scenario, run.schedule)
        assert live == simulated(run, history), (
            f"scenario {index}: {scenario}, schedule {tuple(run.schedule)}"
        )


@pytest.mark.parametrize("name", ["shared_pop", "helped_pop", "push_race", "push_helps"])
def test_fast_path_replays_the_bundled_fixtures(name):
    scenario = load_bundled_fixture(name)
    result = replay_scenario(scenario)
    _, returns, memory = run_live(scenario, scenario.schedule)
    assert tuple(map(tuple, returns)) == result.returns
    assert tuple(memory) == result.memory
