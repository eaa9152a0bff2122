"""Live runs: real threads driving one stack, recorded (stress) or timed (bench).

Both kinds of run go through one driver.  RunConfig.plans draws every
thread's operations before any thread starts: thread i draws from its own
generator, seeded by the run's seed and i, a pop or a push of a value
1..100 with even odds, so a rerun with the same seed performs the same
operations and differs only in interleaving.  drive starts one thread per
plan (two or more run at the switch interval SWITCH_INTERVAL), releases
them together from a barrier, and returns what each operation pushed or
popped, the seconds from the release to the last join, and the steps
per pseudocode line.  A stress run drives a checked stack, records every
operation and counts its steps; a bench run drives an unchecked one,
records and counts nothing and keeps the time.  Both then cross-check
the drained stack with conservation_errors.
"""

from __future__ import annotations

import functools
import itertools
import random
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .baseline_stack import TreiberStack
from .elements import Element, _Empty
from .history import History, OpName, Recorder
from .relaxed_stack import RelaxedStack

IMPLS = ("relaxed", "baseline")
# Preempt often: widens the races a run can show, and a bench row then
# times contention instead of threads taking turns of the default 5 ms.
SWITCH_INTERVAL = 1e-5

Stack = Union[RelaxedStack, TreiberStack]
Outcomes = list[list[tuple[OpName, object]]]  # per thread: (op, element pushed or value popped)


def make_stack(impl: str, checked: bool) -> Stack:
    if impl == "relaxed":
        return RelaxedStack(checked=checked)
    if impl == "baseline":
        return TreiberStack()
    raise ValueError(f"unknown implementation {impl!r}")


@dataclass
class RunConfig:
    impl: str = "relaxed"
    threads: int = 4
    ops_per_thread: int = 100
    seed: int = 0

    @property
    def total_ops(self) -> int:
        return self.threads * self.ops_per_thread

    def plans(self) -> list[list[Optional[int]]]:
        """Each thread's operations in order: a value to push, or None for a pop."""
        plans = []
        for thread in range(self.threads):
            # Tuple-free integer seed: int hashing is stable across processes.
            rng = random.Random(self.seed * 100003 + thread)
            plans.append(
                [
                    rng.randrange(1, 101) if rng.random() < 0.5 else None
                    for _ in range(self.ops_per_thread)
                ]
            )
        return plans


def drive(
    config: RunConfig, stack: Stack, recorder: Optional[Recorder] = None
) -> tuple[Outcomes, float, Counter[int]]:
    """Run config's plans on stack, one thread each, released together.

    Returns each thread's outcomes, the wall seconds from the release to
    the last join, and the steps per pseudocode line.  Every thread
    performs its whole plan, so joining them drains the run: afterwards
    nothing is in flight.  With a recorder, thread i records as process
    i+1 and numbers its operations i+1, i+1+T, i+1+2T, ..., so the op ids
    are 1..total_ops, each used once, and no thread waits for another to
    get one.  The recorder takes no lock either, and each thread counts
    its stack's trace calls per line in a Counter of its own; drive sums
    them after the join.  Without a recorder nothing is traced.
    """
    plans = config.plans()
    results: list[list[object]] = [[] for _ in plans]
    steps: list[Counter[int]] = [Counter() for _ in plans]
    failures: list[BaseException] = []
    barrier = threading.Barrier(len(plans) + 1)
    recording = recorder is not None

    def worker(thread: int) -> None:
        process = thread + 1
        keep = results[thread].append
        push, pop, make_element = stack.push, stack.pop, stack.make_element
        PUSH, POP = OpName.PUSH, OpName.POP
        trace = None
        if recording:
            invocation, response = recorder.invocation, recorder.response
            counts = steps[thread]

            def trace(line: int) -> None:
                counts[line] += 1

        try:
            barrier.wait()
            for op_id, value in zip(itertools.count(process, len(plans)), plans[thread]):
                if value is None:
                    if recording:
                        invocation(process, op_id, POP)
                    kept = returned = pop(trace)
                else:
                    kept = make_element(value)
                    if recording:
                        invocation(process, op_id, PUSH, kept)
                    returned = push(kept, trace)
                if recording:
                    response(process, op_id, returned)
                keep(kept)
        except BaseException as exc:  # surface harness faults, do not hang
            failures.append(exc)

    workers = [
        threading.Thread(target=worker, args=(i,), name=f"process-{i + 1}")
        for i in range(len(plans))
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL if len(plans) > 1 else old_interval)
    try:
        for w in workers:
            w.start()
        barrier.wait()
        started = time.perf_counter()
        for w in workers:
            w.join()
        seconds = time.perf_counter() - started
    finally:
        barrier.abort()  # frees started workers if a later start failed
        sys.setswitchinterval(old_interval)
    if failures:
        raise failures[0]
    # Paired only now: a tuple per operation inside the loop costs a
    # single-thread bench run about a fifth of its time.
    outcomes = [
        [(OpName.POP if value is None else OpName.PUSH, kept) for value, kept in zip(plan, done)]
        for plan, done in zip(plans, results)
    ]
    return outcomes, seconds, sum(steps, Counter())


# ---------------------------------------------------------------------------
# Stress: recorded runs
# ---------------------------------------------------------------------------


@dataclass
class StressResult:
    config: RunConfig
    history: History
    step_counts: dict[int, int]
    outcomes: Outcomes
    stack: Stack

    @functools.cached_property
    def _tallies(self) -> tuple[int, int, int, list[int]]:
        """(pushes, pops, empty pops, ids returned by more than one pop), in one pass."""
        pushes = pops = empty_pops = 0
        popped: Counter[int] = Counter()
        for ops in self.outcomes:
            for name, value in ops:
                if name is OpName.PUSH:
                    pushes += 1
                elif name is OpName.POP:
                    pops += 1
                    if isinstance(value, Element):
                        popped[value.push_id] += 1
                    elif isinstance(value, _Empty):
                        empty_pops += 1
        shared = sorted(pid for pid, n in popped.items() if n > 1)
        return pushes, pops, empty_pops, shared

    @property
    def pushes(self) -> int:
        return self._tallies[0]

    @property
    def pops(self) -> int:
        return self._tallies[1]

    @property
    def empty_pops(self) -> int:
        return self._tallies[2]

    @property
    def shared_return_ids(self) -> list[int]:
        return list(self._tallies[3])

    @property
    def retries(self) -> int:
        attempts = self.step_counts.get(3, 0) + self.step_counts.get(16, 0)
        return max(0, attempts - self.pushes - self.pops)

    @property
    def helps(self) -> int:
        return self.step_counts.get(10, 0) + self.step_counts.get(25, 0)


def run_stress(config: RunConfig) -> StressResult:
    """Drive a checked stack with config's plans, recording every operation."""
    stack = make_stack(config.impl, checked=True)
    recorder = Recorder()
    outcomes, _, step_counts = drive(config, stack, recorder)
    return StressResult(
        config=config,
        history=recorder.history(),
        step_counts=step_counts,
        outcomes=outcomes,
        stack=stack,
    )


def conservation_errors(result: StressResult) -> list[str]:
    """Cross-check a drained run: every pushed element is either still on
    the stack or was popped, nothing else was ever returned, and only the
    relaxed stack may return one element more than once.  A relaxed stack's
    invariant violations, a cycle in its chain included, count too."""
    stack = result.stack
    errors = stack.invariant_violations if isinstance(stack, RelaxedStack) else []
    pushed = [
        value
        for ops in result.outcomes
        for name, value in ops
        if name is OpName.PUSH and isinstance(value, Element)
    ]
    popped = [
        value
        for ops in result.outcomes
        for name, value in ops
        if name is OpName.POP and isinstance(value, Element)
    ]
    pushed_ids = {e.push_id for e in pushed}
    if len(pushed_ids) != len(pushed):
        errors.append("a push id was handed out twice")
    for value in popped:
        if value.push_id not in pushed_ids:
            errors.append(f"popped {value} was never pushed")
    try:
        remaining = {e.push_id for e in stack.logical_state()}
    except RuntimeError as cycle:  # a chain with no end holds no count to compare
        if str(cycle) not in errors:  # a checked stack has named it already
            errors.append(str(cycle))
    else:
        popped_ids = {e.push_id for e in popped}
        overlap = popped_ids & remaining
        if overlap:
            errors.append(f"ids both popped and still on the stack: {sorted(overlap)}")
        lost = pushed_ids - popped_ids - remaining
        if lost:
            errors.append(f"pushed ids neither popped nor on the stack: {sorted(lost)}")
    if result.config.impl == "baseline" and result.shared_return_ids:
        errors.append(f"baseline returned ids more than once: {result.shared_return_ids}")
    return errors


# ---------------------------------------------------------------------------
# Bench: timed runs
# ---------------------------------------------------------------------------


def bench_once(config: RunConfig) -> float:
    """One timed run on an unchecked stack, recording nothing.  Returns the
    seconds from release to last join; raises AssertionError if the run
    fails conservation."""
    stack = make_stack(config.impl, checked=False)
    outcomes, seconds, _ = drive(config, stack)
    errors = conservation_errors(StressResult(config, History(()), {}, outcomes, stack))
    if errors:
        raise AssertionError(f"bench run failed conservation: {'; '.join(errors)}")
    return seconds


def run_bench(
    impls: Sequence[str],
    thread_counts: Sequence[int],
    ops_per_thread: int,
    seed: int,
) -> list[tuple[RunConfig, float]]:
    """Each configuration with the median seconds of three bench runs."""
    rows = []
    for impl in impls:
        for threads in thread_counts:
            config = RunConfig(impl, threads, ops_per_thread, seed)
            rows.append((config, statistics.median(bench_once(config) for _ in range(3))))
    return rows
