"""Checker seconds against history length, before and after a change.

    python tools/bench_checker.py --before <git rev> -o BENCH_checker.json

Records one two-thread stress history per size (`multistack stress -t 2
--seed 1`, 256 to 16,384 operations) with the working tree, then times
`check_set_linearizable` on the same files with the package of the working
tree ("after") and with that of the given revision ("before", unpacked by
`git archive`).  Each tree checks each file in a fresh interpreter capped
at 2 GiB of address space and 300 s, so a checker that recurses too deeply,
runs out of memory or stalls records that outcome instead of a time.
Seconds are wall clock from the call to its outcome (a verdict or the
error), the median of three checks (one when the first takes over 10 s or
fails); `peak_rss_mb` is the child's peak resident memory.
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
LIMIT_BYTES = 2 << 30
TIMEOUT_S = 300


def check_in_this_process(src: str, path: str) -> None:
    """Child side: check one history with the package under src, print JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path.insert(0, src)
    from multistack.checker import check_set_linearizable
    from multistack.history import read_history

    history = read_history(path)
    seconds: list[float] = []
    failed = False
    while not failed and len(seconds) < 3 and (not seconds or seconds[0] < 10):
        start = time.perf_counter()
        try:
            outcome = check_set_linearizable(history, max_ops=1 << 20).outcome.name
        except (RecursionError, MemoryError) as exc:
            outcome, failed = type(exc).__name__, True
        seconds.append(time.perf_counter() - start)
    print(json.dumps({
        "outcome": outcome,
        "seconds": statistics.median(seconds),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


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
        return {"outcome": f"over {TIMEOUT_S} s", "seconds": None}
    if done.returncode != 0:
        return {"outcome": f"exit {done.returncode}: {done.stderr.strip()[-200:]}", "seconds": None}
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="git revision to compare against")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from multistack.cli import main as multistack

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.before], capture_output=True, check=True
        )
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work / "before", filter="data")
        for size in SIZES:
            path = work / f"stress-{size}.history"
            argv = ["stress", "-t", "2", "-n", str(size // 2), "--seed", "1", "-o", str(path)]
            if multistack(argv) != 0:
                raise SystemExit(f"stress run of {size} ops failed")
            row = {"ops": size}
            for side, src in (("before", work / "before" / "src"), ("after", ROOT / "src")):
                row[side] = time_check(src, path)
                print(size, side, row[side], flush=True)
            results.append(row)
    report = {
        "command": f"python tools/bench_checker.py --before {args.before} -o {args.output}",
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
        f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "before": args.before,
        "after": "working tree",
        "what": "wall-clock seconds of check_set_linearizable on one recorded two-thread "
        "stress history, not corrected for the host's speed",
        "results": results,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
