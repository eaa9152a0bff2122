"""Command line front end: stress runs, checking, replay, exploration, bench.

Subcommands communicate through the history text format: stress and
replay write it, check reads it back.  Seeds fix the per-thread operation
mix (thread i draws from its own generator seeded by seed and i), so a
rerun with the same seed performs the same operations and differs only in
interleaving.  The environment variable STACK_SEED, when set, overrides
--seed for every subcommand that takes one.

Exit codes of `check`: 0 accepted, 1 rejected, 2 undecided (size cap),
3 malformed input or an unwritable witness path.  Every subcommand exits
2 on a usage error, a negative or non-integer count included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import os
import random
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .baseline_stack import TreiberStack
from .checker import (
    DEFAULT_MAX_OPS,
    CheckOutcome,
    check_linearizable,
    check_set_linearizable,
    write_witness,
)
from .elements import Element, _Empty
from .history import (
    EventKind,
    History,
    HistoryFormatError,
    OpName,
    Recorder,
    format_event,
    read_history,
    write_history,
)
from .relaxed_stack import RelaxedStack
from .simulator import (
    FixtureFormatError,
    PlannedOp,
    Scenario,
    ScheduleError,
    explore,
    load_bundled_fixture,
    load_fixture,
    replay_scenario,
    verify_expectations,
)

BUNDLED_FIXTURES = ("shared_pop", "helped_pop", "push_race", "push_helps")
IMPLS = ("relaxed", "baseline")


def make_stack(impl: str, checked: bool) -> Union[RelaxedStack, TreiberStack]:
    if impl == "relaxed":
        return RelaxedStack(checked=checked)
    if impl == "baseline":
        return TreiberStack()
    raise ValueError(f"unknown implementation {impl!r}")


# ---------------------------------------------------------------------------
# Stress harness
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    impl: str = "relaxed"
    threads: int = 4
    ops_per_thread: int = 100
    seed: int = 0

    @property
    def total_ops(self) -> int:
        return self.threads * self.ops_per_thread

    def thread_rng(self, thread: int) -> random.Random:
        # Tuple-free integer seed: int hashing is stable across processes.
        return random.Random(self.seed * 100003 + thread)


@dataclass
class StressResult:
    config: RunConfig
    history: History
    step_counts: dict[int, int]
    outcomes: list[list[tuple[OpName, object]]]  # per thread: (op, element/return)
    stack: Union[RelaxedStack, TreiberStack]

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
    """Drive one stack with config.threads real threads.

    Each thread performs its whole planned operation count, so joining the
    workers drains the run: at the final snapshot nothing is in flight.
    With T threads, thread i numbers its operations i+1, i+1+T, i+1+2T, ...,
    so the op ids are 1..total_ops, each used once, and no thread waits
    for another to get one.  The recorder takes no lock either.
    """
    stack = make_stack(config.impl, checked=True)
    recorder = Recorder()
    outcomes: list[list[tuple[OpName, object]]] = [[] for _ in range(config.threads)]
    failures: list[BaseException] = []

    def worker(thread: int) -> None:
        rng = config.thread_rng(thread)
        process = thread + 1
        mine = outcomes[thread]
        invocation, response, tracer = recorder.invocation, recorder.response, recorder.tracer
        push, pop = OpName.PUSH, OpName.POP
        try:
            for op_id in range(process, config.total_ops + 1, config.threads):
                trace = tracer(process, op_id)
                if rng.random() < 0.5:  # half pushes, of values 1..100
                    element = stack.make_element(rng.randrange(1, 101))
                    invocation(process, op_id, push, element)
                    stack.push(element, trace)
                    response(process, op_id, True)
                    mine.append((push, element))
                else:
                    invocation(process, op_id, pop)
                    value = stack.pop(trace)
                    response(process, op_id, value)
                    mine.append((pop, value))
        except BaseException as exc:  # surface harness faults, do not hang
            failures.append(exc)

    workers = [
        threading.Thread(target=worker, args=(i,), name=f"stress-{i + 1}")
        for i in range(config.threads)
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt often; widens the observable races
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(old_interval)
    if failures:
        raise failures[0]
    return StressResult(
        config=config,
        history=recorder.history(),
        step_counts=recorder.step_counts(),
        outcomes=outcomes,
        stack=stack,
    )


def conservation_errors(result: StressResult) -> list[str]:
    """Cross-check a drained run: every pushed element is either still on
    the stack or was popped, nothing else was ever returned, and only the
    relaxed stack may return one element more than once."""
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
    remaining = result.stack.logical_state()
    errors = []
    pushed_ids = {e.push_id for e in pushed}
    if len(pushed_ids) != len(pushed):
        errors.append("a push id was handed out twice")
    for value in popped:
        if value.push_id not in pushed_ids:
            errors.append(f"popped {value} was never pushed")
    overlap = {e.push_id for e in popped} & {e.push_id for e in remaining}
    if overlap:
        errors.append(f"ids both popped and still on the stack: {sorted(overlap)}")
    accounted = {e.push_id for e in popped} | {e.push_id for e in remaining}
    lost = pushed_ids - accounted
    if lost:
        errors.append(f"pushed ids neither popped nor on the stack: {sorted(lost)}")
    if result.config.impl == "baseline" and result.shared_return_ids:
        errors.append(
            f"baseline returned ids more than once: {result.shared_return_ids}"
        )
    if isinstance(result.stack, RelaxedStack):
        errors.extend(result.stack.invariant_violations)
        result.stack.memory_snapshot()  # raises if the chain has a cycle
    return errors


# ---------------------------------------------------------------------------
# Bench harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    impl: str
    threads: int
    ops_per_thread: int
    seconds: float

    @property
    def total_ops(self) -> int:
        return self.threads * self.ops_per_thread

    @property
    def ops_per_sec(self) -> float:
        return self.total_ops / self.seconds if self.seconds > 0 else float("inf")


def bench_once(config: RunConfig) -> float:
    """One timed run: no recording, operation plans drawn before the clock
    starts.  Returns wall seconds from release to last join."""
    stack = make_stack(config.impl, checked=False)
    barrier = threading.Barrier(config.threads + 1)
    pushed_lists: list[list[Element]] = [[] for _ in range(config.threads)]
    popped_lists: list[list[Element]] = [[] for _ in range(config.threads)]
    failures: list[BaseException] = []

    def worker(thread: int) -> None:
        rng = config.thread_rng(thread)
        plan = [
            (rng.random() < 0.5, rng.randrange(1, 101))  # half pushes, of values 1..100
            for _ in range(config.ops_per_thread)
        ]
        pushed = pushed_lists[thread]
        popped = popped_lists[thread]
        try:
            barrier.wait()
            for is_push, value in plan:
                if is_push:
                    element = stack.make_element(value)
                    stack.push(element)
                    pushed.append(element)
                else:
                    result = stack.pop()
                    if isinstance(result, Element):
                        popped.append(result)
        except BaseException as exc:
            failures.append(exc)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(config.threads)]
    for w in workers:
        w.start()
    barrier.wait()
    started = time.perf_counter()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - started
    if failures:
        raise failures[0]

    pushed_ids = {e.push_id for lst in pushed_lists for e in lst}
    popped_ids = {e.push_id for lst in popped_lists for e in lst}
    remaining_ids = {e.push_id for e in stack.logical_state()}
    if popped_ids | remaining_ids != pushed_ids or popped_ids & remaining_ids:
        raise AssertionError("bench run lost or invented elements")
    return elapsed


def run_bench(
    impls: Sequence[str],
    thread_counts: Sequence[int],
    ops_per_thread: int,
    seed: int,
    repeats: int = 3,
) -> list[BenchRow]:
    rows = []
    for impl in impls:
        for threads in thread_counts:
            config = RunConfig(
                impl=impl,
                threads=threads,
                ops_per_thread=ops_per_thread,
                seed=seed,
            )
            times = [bench_once(config) for _ in range(repeats)]
            rows.append(BenchRow(impl, threads, ops_per_thread, statistics.median(times)))
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_stress(args: argparse.Namespace) -> int:
    config = RunConfig(
        impl=args.impl,
        threads=args.threads,
        ops_per_thread=args.ops_per_thread,
        seed=args.seed,
    )
    result = run_stress(config)
    errors = conservation_errors(result)
    try:
        write_history(result.history, args.output)
    except OSError as exc:
        print(f"ERROR: {exc}")
        return 3
    shared = result.shared_return_ids
    print(
        f"impl={config.impl} threads={config.threads} ops_per_thread={config.ops_per_thread} "
        f"total_ops={config.total_ops} pushes={result.pushes} pops={result.pops} "
        f"empty_pops={result.empty_pops} shared_returns={len(shared)} "
        f"retries={result.retries} helps={result.helps} history={args.output}"
    )
    for error in errors:
        print(f"CONSERVATION VIOLATED: {error}")
    return 1 if errors else 0


def cmd_check(args: argparse.Namespace) -> int:
    try:
        history = read_history(args.history)
    except HistoryFormatError as exc:
        print(f"MALFORMED: {exc}")
        return 3
    except OSError as exc:
        print(f"MALFORMED: {exc}")
        return 3
    checker = check_linearizable if args.mode == "lin" else check_set_linearizable
    verdict = checker(history, max_ops=args.max_ops)
    if verdict.outcome is CheckOutcome.ACCEPTED:
        assert verdict.witness is not None
        witness_path = args.witness or f"{args.history}.witness"
        try:
            write_witness(verdict.witness, witness_path)
        except OSError as exc:
            print(f"ERROR: {exc}")
            return 3
        print(f"ACCEPTED: {len(verdict.witness)} classes; witness written to {witness_path}")
        return 0
    if verdict.outcome is CheckOutcome.REJECTED:
        print(f"REJECTED: {verdict.refutation}")
        return 1
    print(f"UNDECIDED: {verdict.refutation}")
    return 2


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        if args.fixture in BUNDLED_FIXTURES:
            scenario = load_bundled_fixture(args.fixture)
        else:
            scenario = load_fixture(args.fixture)
    except (FixtureFormatError, UnicodeDecodeError, OSError) as exc:
        print(f"MALFORMED: {exc}")
        return 3
    if scenario.schedule is None:
        print("MALFORMED: fixture has no SCHED line to replay")
        return 3
    try:
        result = replay_scenario(scenario)
    except ScheduleError as exc:
        print(f"MALFORMED: {exc}")
        return 3
    for event in result.history.events:
        print(format_event(event))
    memory = " ".join(f"({e.value},{'T' if elim else 'F'})" for e, elim in result.memory)
    logical = " ".join(str(e.value) for e in result.logical)
    returns = " ".join(
        _return_token(value) for per_thread in result.returns for value in per_thread
    )
    print(f"FINAL MEMORY {memory}".rstrip())
    print(f"FINAL LOGICAL {logical}".rstrip())
    print(f"RETURNS {returns}".rstrip())
    if args.output:
        try:
            write_history(result.history, args.output)
        except OSError as exc:
            print(f"ERROR: {exc}")
            return 3
    if args.check_expectations:
        problems = verify_expectations(scenario, result)
        for problem in problems:
            print(f"FAIL {problem}")
        if problems:
            return 1
        print("PASS all expectations hold")
    return 0


def _return_token(value: object) -> str:
    if value is True:
        return "true"
    if isinstance(value, _Empty):
        return "empty"
    if isinstance(value, Element):
        return str(value.value)
    return repr(value)


def all_program_mixes(
    threads: int, ops_per_thread: int
) -> list[tuple[tuple[PlannedOp, ...], ...]]:
    """Every assignment of push/pop to the threads' program slots.  Push
    values (and ids) are numbered per mix in thread-major order."""
    mixes = []
    slots = threads * ops_per_thread
    for bits in itertools.product((OpName.PUSH, OpName.POP), repeat=slots):
        programs = []
        op_id = 0
        value = 0
        for thread in range(threads):
            program = []
            for position in range(ops_per_thread):
                name = bits[thread * ops_per_thread + position]
                op_id += 1
                if name is OpName.PUSH:
                    value += 1
                    program.append(PlannedOp(op_id, name, Element(value, value)))
                else:
                    program.append(PlannedOp(op_id, name))
            programs.append(tuple(program))
        mixes.append(tuple(programs))
    return mixes


def history_shares_return(history: History) -> bool:
    counts = Counter(
        event.payload.push_id
        for event in history.events
        if event.kind is EventKind.RESPONSE and isinstance(event.payload, Element)
    )
    return any(n > 1 for n in counts.values())


def cmd_explore(args: argparse.Namespace) -> int:
    max_ops = args.threads * args.ops  # every run completes all of them
    total_runs = 0
    accepted = 0
    rejected_schedules = []
    shared = 0
    shared_lin_rejected = 0
    for programs in all_program_mixes(args.threads, args.ops):
        scenario = Scenario(programs=programs)
        mix_runs = 0
        for run in explore(scenario):
            mix_runs += 1
            verdict = check_set_linearizable(run.history, max_ops=max_ops)
            if verdict.accepted:
                accepted += 1
            else:
                rejected_schedules.append((programs, run.schedule, verdict.refutation))
            if history_shares_return(run.history):
                shared += 1
                if not check_linearizable(run.history, max_ops=max_ops).accepted:
                    shared_lin_rejected += 1
        total_runs += mix_runs
        if args.verbose:
            names = " | ".join(
                ",".join(op.name.value for op in program) for program in programs
            )
            print(f"mix {names}: {mix_runs} interleavings")
    print(
        f"threads={args.threads} ops_per_thread={args.ops} "
        f"mixes={2 ** (args.threads * args.ops)} interleavings={total_runs} "
        f"setlin_accepted={accepted} setlin_rejected={len(rejected_schedules)} "
        f"shared_return={shared} shared_lin_rejected={shared_lin_rejected}"
    )
    for programs, schedule, refutation in rejected_schedules[:5]:
        print(f"REJECTED schedule {schedule}: {refutation}")
    return 1 if rejected_schedules else 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.ops_per_thread > 0:
        rows = run_bench(
            impls=args.impls,
            thread_counts=args.threads,
            ops_per_thread=args.ops_per_thread,
            seed=args.seed,
        )
    else:
        rows = []
    writer = csv.writer(sys.stdout)
    writer.writerow(["impl", "threads", "ops_per_thread", "total_ops", "seconds", "ops_per_sec"])
    for row in rows:
        writer.writerow(
            [
                row.impl,
                row.threads,
                row.ops_per_thread,
                row.total_ops,
                f"{row.seconds:.6f}",
                f"{row.ops_per_sec:.1f}",
            ]
        )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def count(text: str) -> int:
    """Argument type of the size options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def counts(text: str) -> list[int]:
    """Argument type of bench --threads: comma-separated counts."""
    return [count(token) for token in text.split(",")]


def impls(text: str) -> list[str]:
    """Argument type of bench --impls: comma-separated stack names."""
    names = text.split(",")
    for name in names:
        if name not in IMPLS:
            raise argparse.ArgumentTypeError(
                f"unknown implementation {name!r} (choose from {', '.join(IMPLS)})"
            )
    return names


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multistack",
        description="Relaxed-stack workbench: run, record, check, replay, explore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stress = sub.add_parser("stress", help="hammer a stack with real threads")
    stress.add_argument("--impl", choices=IMPLS, default="relaxed")
    stress.add_argument("-t", "--threads", type=count, default=4)
    stress.add_argument("-n", "--ops-per-thread", type=count, default=100)
    stress.add_argument("--seed", type=int, default=0)
    stress.add_argument("-o", "--output", default="stress.history")
    stress.set_defaults(func=cmd_stress)

    check = sub.add_parser("check", help="decide a recorded history")
    check.add_argument("history")
    check.add_argument("--mode", choices=("setlin", "lin"), default="setlin")
    check.add_argument("--max-ops", type=count, default=DEFAULT_MAX_OPS)
    check.add_argument("--witness", help="witness path (default: <history>.witness)")
    check.set_defaults(func=cmd_check)

    replay = sub.add_parser("replay", help="run a fixture schedule deterministically")
    replay.add_argument(
        "fixture", help=f"bundled name ({', '.join(BUNDLED_FIXTURES)}) or a file path"
    )
    replay.add_argument(
        "--assert",
        dest="check_expectations",
        action="store_true",
        help="verify the fixture's EXPECT clauses",
    )
    replay.add_argument("-o", "--output", help="also write the history to a file")
    replay.set_defaults(func=cmd_replay)

    explore_cmd = sub.add_parser(
        "explore", help="enumerate every interleaving of small programs"
    )
    explore_cmd.add_argument("--threads", type=count, default=2)
    explore_cmd.add_argument("--ops", type=count, default=2)
    explore_cmd.add_argument("-v", "--verbose", action="store_true")
    explore_cmd.set_defaults(func=cmd_explore)

    bench = sub.add_parser("bench", help="throughput matrix, CSV on stdout")
    bench.add_argument("--impls", type=impls, default="relaxed,baseline")
    bench.add_argument("--threads", type=counts, default=[1, 2, 4])
    bench.add_argument("-n", "--ops-per-thread", type=count, default=10000)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):
        env_seed = os.environ.get("STACK_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                parser.error(f"STACK_SEED must be an integer, got {env_seed!r}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
