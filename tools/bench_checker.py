"""Checker seconds against history length, before and after a change.

    python tools/bench_checker.py --before <git rev> -o BENCH_checker.json

Writes one simulated two-thread history per size (256 to 16,384
operations): `simulator.seeded_history(1, 2, size // 2)`, a uniform random
schedule drawn from seed 1, with its INV/RES events only, as `multistack
stress` writes them.  It also writes two long-open-pop histories (4,096
and 16,384 operations): process 1 pushes, then invokes a pop that stays
open while process 2 runs push/pop pairs, and returns the last pair's
element, a shared return.  Every history is built, not recorded, so each
row checks the same bytes on every run and host.  The seconds are not
corrected for the host's speed, so they do not compare between output
files: only the before/after ratio within one file does.  It then times
`check_set_linearizable` on the files with the package of the working
tree ("after") and with that of the given revision ("before", unpacked by
`git archive`).  Every check runs in a
fresh interpreter capped at 2 GiB of address space and 300 s, so a checker
that recurses too deeply, runs out of memory or stalls records that
outcome instead of a time, and an offset that lasts for one interpreter's
life (its hash seed, where its memory landed) falls on one check only.
The trees check each file in rounds, one check each per round, alternating
which goes first, so a change in the host's speed falls on both trees
alike.  Rounds continue until each tree has spent 3 s checking (at least 9
rounds, so that even a row of over 1 s has quartiles that rest on 9
checks per tree; at most 101), so short checks get many rounds; a check
that fails or takes over 10 s ends the rounds.  Seconds are wall clock from the call
to its outcome (a verdict or the error), not counting interpreter start-up
or loading the file: the median and quartiles over the rounds, with the
number of rounds the after tree was faster; `peak_rss_mb` is the largest
peak resident memory (VmHWM) of a tree's interpreters.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 1024, 4096, 16384)
LONG_OPEN_POP_SIZES = (4096, 16384)
LIMIT_BYTES = 2 << 30
TIMEOUT_S = 300
BUDGET_S = 3.0  # checking time per tree and size
MIN_ROUNDS, MAX_ROUNDS = 9, 101
LONG_S = 10.0  # a check this slow is not repeated


def write_long_open_pop(path: Path, ops: int) -> None:
    """Write the long-open-pop history of ops operations (see above)."""
    from multistack.elements import Element
    from multistack.history import Event, EventKind, History, OpName, write_history

    events: list[Event] = []

    def emit(process, op_id, kind, name, payload) -> None:
        events.append(Event(process, op_id, kind, name, payload))

    inv, res, push, pop = EventKind.INVOCATION, EventKind.RESPONSE, OpName.PUSH, OpName.POP
    emit(1, 1, inv, push, Element(0, 1))
    emit(1, 1, res, push, True)
    emit(1, 2, inv, pop, None)
    pairs = (ops - 2) // 2
    for i in range(pairs):
        element = Element(i % 100, i + 2)
        emit(2, 2 * i + 3, inv, push, element)
        emit(2, 2 * i + 3, res, push, True)
        emit(2, 2 * i + 4, inv, pop, None)
        emit(2, 2 * i + 4, res, pop, element)
    emit(1, 2, res, pop, element)
    write_history(History(tuple(events)), path)


def write_simulated(path: Path, ops: int) -> None:
    """Write the seeded two-thread simulated history of ops operations,
    INV/RES events only (see above)."""
    from multistack.history import EventKind, History, write_history
    from multistack.simulator import seeded_history

    events = seeded_history(1, 2, ops // 2).events
    write_history(History(tuple(e for e in events if e.kind is not EventKind.STEP)), path)


def check_in_this_process(src: str, path: str) -> None:
    """Child side: check one history once with the package under src and
    print the outcome as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path.insert(0, src)
    from multistack.checker import check_set_linearizable
    from multistack.history import read_history

    history = read_history(path)
    start = time.perf_counter()
    try:
        outcome, failed = check_set_linearizable(history, max_ops=1 << 20).outcome.name, False
    except (RecursionError, MemoryError) as exc:
        outcome, failed = type(exc).__name__, True
    print(json.dumps({
        "outcome": outcome,
        "failed": failed,
        "seconds": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
    }))


def peak_rss_mb() -> float:
    """This interpreter's own peak resident memory.  Not ru_maxrss: Linux
    carries that across the exec from the spawning process, so every check
    would read at least the tool's own resident size."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 1)
    raise RuntimeError("no VmHWM line in /proc/self/status")


def time_check(src: Path, path: Path) -> dict:
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_checker; "
        f"bench_checker.check_in_this_process({str(src)!r}, {str(path)!r})"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"outcome": f"over {TIMEOUT_S} s", "failed": True}
    if done.returncode != 0:
        return {"outcome": f"exit {done.returncode}: {done.stderr.strip()[-200:]}", "failed": True}
    return json.loads(done.stdout)


def time_checks(trees: dict[str, Path], path: Path) -> dict:
    """Alternating rounds of one check per tree on one history file."""
    seconds: dict[str, list[float]] = {side: [] for side in trees}
    rows = {side: {"peak_rss_mb": 0.0} for side in trees}
    order = list(trees)
    failed = False
    for rounds in range(1, MAX_ROUNDS + 1):
        for side in order:
            reply = time_check(trees[side], path)
            rows[side]["outcome"] = reply["outcome"]
            if "seconds" in reply:
                seconds[side].append(reply["seconds"])
            rows[side]["peak_rss_mb"] = max(rows[side]["peak_rss_mb"], reply.get("peak_rss_mb", 0.0))
            failed |= reply["failed"]
        order.reverse()
        if failed or any(s[0] > LONG_S for s in seconds.values()):
            break
        if rounds >= MIN_ROUNDS and all(sum(s) >= BUDGET_S for s in seconds.values()):
            break
    for side, times in seconds.items():
        rows[side]["seconds"] = statistics.median(times) if times else None
        if len(times) > 1:
            rows[side]["quartiles"] = statistics.quantiles(times, n=4)[::2]
        rows[side]["rounds"] = len(times)
    pairs = list(zip(seconds["before"], seconds["after"]))
    return {**rows, "after_faster_rounds": sum(after < before for before, after in pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="git revision to compare against")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.before], capture_output=True, check=True
        )
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work / "before", filter="data")
        histories = [("simulated 2-thread", size, write_simulated) for size in SIZES]
        histories += [("long open pop", size, write_long_open_pop) for size in LONG_OPEN_POP_SIZES]
        for kind, size, write in histories:
            path = work / f"{kind.replace(' ', '-')}-{size}.history"
            write(path, size)
            row = {"history": kind, "ops": size}
            row.update(time_checks({"before": work / "before" / "src", "after": ROOT / "src"}, path))
            print(kind, size, row, flush=True)
            results.append(row)
    report = {
        "command": f"python tools/bench_checker.py --before {args.before} -o {args.output}",
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
        f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "before": args.before,
        "after": "working tree",
        "what": "wall-clock seconds of check_set_linearizable on one built history per "
        "row, a seeded simulated two-thread history or a long-open-pop history (the "
        "same bytes on every run), one fresh interpreter per check, median and "
        "quartiles over rounds that alternate the two trees, not corrected for the "
        "host's speed",
        "results": results,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
