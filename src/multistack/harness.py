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
operation and counts its steps, then fills in a StressResult once: its
counters and the drained stack's conservation_errors are plain fields.
A bench run drives an unchecked one, records and counts nothing, keeps
the time and raises if the drained stack fails conservation_errors.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .baseline_stack import TreiberStack
from .elements import EMPTY, Element
from .history import History, OpName, Recorder
from .relaxed_stack import ATTEMPT_LINES, HELP_LINES, RelaxedStack

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
    get one.  The recorder takes no lock either, and each thread's stack
    traces into a list of its own by that list's append, so a traced line
    costs no Python frame; drive counts the lines of all the lists after
    the join.  Without a recorder nothing is traced.
    """
    plans = config.plans()
    results: list[list[object]] = [[] for _ in plans]
    lines: list[list[int]] = [[] for _ in plans]  # per thread: each line traced
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
            trace = lines[thread].append
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
    return outcomes, seconds, Counter(itertools.chain.from_iterable(lines))


# ---------------------------------------------------------------------------
# Stress: recorded runs
# ---------------------------------------------------------------------------


@dataclass
class StressResult:
    config: RunConfig
    history: History
    step_counts: Counter[int]
    outcomes: Outcomes
    stack: Stack
    pushes: int
    pops: int
    empty_pops: int
    shared_return_ids: list[int]
    retries: int  # top loads (ATTEMPT_LINES) beyond one per operation
    helps: int  # swings past a deleted top (HELP_LINES)
    conservation: list[str]  # the drained run's conservation_errors


def run_stress(config: RunConfig) -> StressResult:
    """Drive a checked stack with config's plans, recording every
    operation, then tally the run and check its conservation."""
    stack = make_stack(config.impl, checked=True)
    recorder = Recorder()
    outcomes, _, step_counts = drive(config, stack, recorder)
    popped = [value for ops in outcomes for name, value in ops if name is OpName.POP]
    pushes, pops = config.total_ops - len(popped), len(popped)
    attempts = sum(step_counts[line] for line in ATTEMPT_LINES)
    return StressResult(
        config=config,
        history=recorder.history(),
        step_counts=step_counts,
        outcomes=outcomes,
        stack=stack,
        pushes=pushes,
        pops=pops,
        empty_pops=popped.count(EMPTY),
        shared_return_ids=repeated_ids(popped),
        # The baseline traces no line: it has no attempts to count.
        retries=max(0, attempts - pushes - pops),
        helps=sum(step_counts[line] for line in HELP_LINES),
        conservation=conservation_errors(stack, outcomes),
    )


def repeated_ids(values: Iterable[object]) -> list[int]:
    """The push ids, sorted, of the elements that values holds more than once."""
    counts = Counter(value.push_id for value in values if isinstance(value, Element))
    return sorted(pid for pid, n in counts.items() if n > 1)


def conservation_errors(stack: Stack, outcomes: Outcomes) -> list[str]:
    """Cross-check a drained run: every pushed element is either still on
    the stack or was popped, nothing else was ever returned, and only the
    relaxed stack may return one element more than once.  A relaxed stack's
    invariant violations, a cycle in its chain included, count too."""
    errors = stack.invariant_violations if isinstance(stack, RelaxedStack) else []
    elements = [pair for ops in outcomes for pair in ops if isinstance(pair[1], Element)]
    pushed = [value for name, value in elements if name is OpName.PUSH]
    popped = [value for name, value in elements if name is OpName.POP]
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
    if not isinstance(stack, RelaxedStack):
        shared = repeated_ids(popped)
        if shared:
            errors.append(f"baseline returned ids more than once: {shared}")
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
    errors = conservation_errors(stack, outcomes)
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
