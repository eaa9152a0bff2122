"""Command line front end: stress runs, checking, replay, exploration, bench.

This module parses arguments, dispatches to the subcommands and prints
their results; the live runs behind stress and bench are in harness.py.
Subcommands communicate through the history text format: stress and
replay write it, check reads it back.  Seeds fix the per-thread operation
mix (see harness.RunConfig.plans), so a rerun with the same seed performs
the same operations and differs only in interleaving.

Exit codes of `check`: 0 accepted, 1 rejected, 2 undecided (size cap),
3 malformed input or an unwritable witness path.  Every subcommand exits
2 on a usage error, a negative or non-integer count included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import sys
from collections import Counter
from typing import Optional, Sequence

from .checker import (
    DEFAULT_MAX_OPS,
    CheckOutcome,
    check_linearizable,
    check_set_linearizable,
    write_witness,
)
from .elements import Element, _Empty
from .harness import IMPLS, RunConfig, conservation_errors, run_bench, run_stress
from .history import (
    EventKind,
    History,
    HistoryFormatError,
    OpName,
    dumps,
    read_history,
    write_history,
)
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
    except (HistoryFormatError, OSError) as exc:
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
    print(dumps(result.history), end="")
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
    writer = csv.writer(sys.stdout)
    writer.writerow(["impl", "threads", "ops_per_thread", "total_ops", "seconds", "ops_per_sec"])
    if args.ops_per_thread == 0:
        return 0
    for config, seconds in run_bench(args.impls, args.threads, args.ops_per_thread, args.seed):
        ops_per_sec = config.total_ops / seconds if seconds > 0 else float("inf")
        writer.writerow(
            [
                config.impl,
                config.threads,
                config.ops_per_thread,
                config.total_ops,
                f"{seconds:.6f}",
                f"{ops_per_sec:.1f}",
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
