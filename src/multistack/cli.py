"""Command line front end: parses arguments, dispatches to the subcommands
and prints their results.  The live runs behind stress and bench are in
harness.py, replay and the exhaustive sweep behind explore in simulator.py.
Subcommands communicate through the history text format: stress and
replay write it, check reads it back.  Seeds fix the per-thread operation
mix (see harness.RunConfig.plans), so a rerun with the same seed performs
the same operations and differs only in interleaving.

Exit codes: 0 success; 1 check rejected, a replay expectation failed,
stress conservation failed, or explore's sweep rejected a run; 2 a usage
error (a negative or non-integer count included) or check undecided at
its size cap; 3 malformed input or an unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from typing import Optional, Sequence

from .checker import (
    DEFAULT_MAX_OPS,
    CheckOutcome,
    check_linearizable,
    check_set_linearizable,
    write_witness,
)
from .harness import IMPLS, RunConfig, run_bench, run_stress
from .history import HistoryFormatError, dumps, read_history, write_history
from .simulator import (
    FixtureFormatError,
    ScheduleError,
    load_bundled_fixture,
    load_fixture,
    replay_scenario,
    return_token,
    sweep_family,
    verify_expectations,
)
# Not used here: perfbench/workloads.py looks both up on this module.
from .simulator import all_program_mixes, history_shares_return  # noqa: F401

BUNDLED_FIXTURES = ("shared_pop", "helped_pop", "push_race", "push_helps")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_stress(args: argparse.Namespace) -> int:
    config = RunConfig(args.impl, args.threads, args.ops_per_thread, args.seed)
    result = run_stress(config)
    try:
        write_history(result.history, args.output)
    except OSError as exc:
        print(f"ERROR: {exc}")
        return 3
    print(
        f"impl={config.impl} threads={config.threads} ops_per_thread={config.ops_per_thread} "
        f"total_ops={config.total_ops} pushes={result.pushes} pops={result.pops} "
        f"empty_pops={result.empty_pops} shared_returns={len(result.shared_return_ids)} "
        f"retries={result.retries} helps={result.helps} history={args.output}"
    )
    for error in result.conservation:
        print(f"CONSERVATION VIOLATED: {error}")
    return 1 if result.conservation else 0


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
        return_token(value) for per_thread in result.returns for value in per_thread
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


def cmd_explore(args: argparse.Namespace) -> int:
    sweep = sweep_family(args.threads, args.ops)
    if args.verbose:
        for programs, runs in sweep.mixes:
            names = " | ".join(",".join(op.name.value for op in program) for program in programs)
            print(f"mix {names}: {runs} interleavings")
    print(
        f"threads={args.threads} ops_per_thread={args.ops} "
        f"mixes={len(sweep.mixes)} interleavings={sweep.runs} "
        f"setlin_accepted={sweep.accepted} setlin_rejected={len(sweep.rejected)} "
        f"shared_return={sweep.shared} shared_lin_rejected={sweep.shared_lin_rejected}"
    )
    for schedule, refutation in sweep.rejected[:5]:
        print(f"REJECTED schedule {schedule}: {refutation}")
    return 1 if sweep.rejected else 0


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
