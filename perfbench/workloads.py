"""The benchmark's three workloads: timed, checked, and optionally traced.

live-contended  two threads run a seeded 50/50 push/pop mix on an
                unrecorded RelaxedStack, round after round (closed loop).
stress-check    `multistack stress -t 2 -n 256` then `multistack check
                --max-ops 512` on what it wrote, through cli.main in process.
explore-2x2     every schedule of every 2-thread x 2-op program mix,
                simulated and judged exactly as `multistack explore` does.

Each workload yields one timing sample per item (a round, a history, an
interleaving) and checks every item's outputs; an item that fails a check
or raises is counted as failed and the run goes on.  The traced variants
time the same calls again with every layer's public functions wrapped in
spans (see tracing.py) and derive the per-layer numbers from them.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import re
import shutil
import sys
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from multistack import checker, cli, elements, history, relaxed_stack, simulator
from multistack.baseline_stack import TreiberStack
from multistack.elements import Element
from multistack.history import EventKind
from multistack.relaxed_stack import AtomicReference, RelaxedStack
from hostspeed import HostSpeed, sampling
from tracing import Tracer

LIVE_THREADS = 2
# Pinned as run_stress pins it: the threads keep preempting each other, so
# helps and shared returns happen.  At the default interval two-thread
# throughput is bimodal from one process to the next.
SWITCH_INTERVAL = 1e-5
# The traced live phase stops after this many rounds to bound span memory.
TRACED_LIVE_ROUNDS = 6

STRESS_THREADS = 2
STRESS_SEEDS = 1000

EXPLORE_MAX_STEPS = 500  # the defaults of `multistack explore`
EXPLORE_MAX_OPS = 16
# (interleavings, distinct INV/RES histories, runs with a shared return) of
# each family the benchmark explores.  Every shared-return run must also
# fail the plain linearizability check.
FAMILY_COUNTS = {(2, 2): (82_536, 714, 1_308), (2, 1): (30, 14, 0)}


@dataclass(frozen=True)
class Size:
    live_ops_per_thread: int  # per round
    live_plans: int  # distinct seeded round plans, used in turn
    stress_ops_per_thread: int
    family: tuple[int, int]  # explored threads x ops per thread


FULL = Size(live_ops_per_thread=5000, live_plans=8, stress_ops_per_thread=256, family=(2, 2))
TINY = Size(live_ops_per_thread=200, live_plans=2, stress_ops_per_thread=8, family=(2, 1))


@dataclass
class Outcome:
    item: str  # what one timing sample covers
    samples: list[float] = field(default_factory=list)  # seconds per item
    starts: list[float] = field(default_factory=list)  # perf_counter at each item's start
    seconds: float = 0.0  # all timed work
    ops: int = 0  # stack operations the timed items carried
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def add(self, started: float, seconds: float, ops: int, problems: list[str]) -> None:
        self.samples.append(seconds)
        self.starts.append(started)
        self.seconds += seconds
        self.ops += ops
        self.tally(problems)

    def absorb_checks(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def extend(self, other: "Outcome") -> None:
        """Append the items and checks of a later phase."""
        self.samples += other.samples
        self.starts += other.starts
        self.seconds += other.seconds
        self.ops += other.ops
        self.absorb_checks(other)
        self.notes += other.notes


def prepare(workload: str, seed: int, size: Size):
    """The workload's inputs, drawn from seed alone."""
    rng = random.Random(seed)
    if workload == "live-contended":
        return [
            tuple(
                [
                    (rng.random() < 0.5, rng.randrange(1, 101))
                    for _ in range(size.live_ops_per_thread)
                ]
                for _ in range(LIVE_THREADS)
            )
            for _ in range(size.live_plans)
        ]
    if workload == "stress-check":
        return [rng.randrange(1 << 31) for _ in range(STRESS_SEEDS)]
    if workload == "explore-2x2":
        mixes = cli.all_program_mixes(*size.family)
        rng.shuffle(mixes)  # the family is fixed; the seed only orders it
        return mixes
    raise ValueError(f"unknown workload {workload!r}")


def run(
    workload: str, inputs, size: Size, seconds: float, scratch: Path,
    speed: Optional[HostSpeed] = None,
) -> Outcome:
    """The untraced run behind the end-to-end metrics.  With speed, the
    host's speed is sampled beside every item (see hostspeed.py)."""
    if workload == "live-contended":
        return live_phase(inputs, seconds, speed=speed)
    if workload == "stress-check":
        return stress_phase(inputs, size, seconds, scratch, speed=speed)
    started = perf_counter()
    outcome = explore_phase(inputs, size, speed=speed)
    one_pass = perf_counter() - started
    # Another whole family only while one more still fits in the time.
    while perf_counter() + one_pass <= started + seconds:
        outcome.extend(explore_phase(inputs, size, speed=speed))
    return outcome


def run_traced(
    workload: str, inputs, size: Size, seconds: float, scratch: Path, tracer: Tracer
) -> Outcome:
    """An untraced phase, then the same work traced; the per-layer numbers
    come from the traced phase and the difference is the tracing overhead."""
    extra: dict[str, float] = {}
    if workload == "live-contended":
        plain = live_phase(inputs, seconds / 3)
        with instrumented(tracer):
            traced = live_phase(inputs, seconds / 3, tracer=tracer, max_rounds=TRACED_LIVE_ROUNDS)
        baseline = live_phase(inputs, seconds / 3, stack_class=TreiberStack)
        plain.absorb_checks(baseline)
        extra["baseline_stack.ops_per_s"] = baseline.ops / baseline.seconds
        extra["baseline_stack.relaxed_over_baseline"] = (
            plain.ops / plain.seconds / extra["baseline_stack.ops_per_s"]
        )
    elif workload == "stress-check":
        plain = stress_phase(inputs, size, seconds / 2, scratch)
        with instrumented(tracer):
            traced = stress_phase(
                inputs, size, 0, scratch, tracer=tracer, count=len(plain.samples)
            )
    else:
        plain = explore_phase(inputs, size)
        with instrumented(tracer):
            traced = explore_phase(inputs, size, tracer=tracer)
    traced.absorb_checks(plain)
    traced.layers.update(span_layers(tracer, items=len(traced.samples), ops=traced.ops))
    traced.layers.update(extra)
    per_item = (traced.seconds / len(traced.samples)) / (plain.seconds / len(plain.samples))
    traced.layers["trace.overhead_pct"] = (per_item - 1) * 100
    return traced


# ---------------------------------------------------------------------------
# live-contended
# ---------------------------------------------------------------------------


def conservation_problems(pushed: list[int], popped: list[int], remaining: list[int]) -> list[str]:
    """Push ids: popped and remaining together must be exactly the pushed
    ids, and no id may be both popped and still on the stack.  An id popped
    more than once is a shared return, which the relaxed stack allows."""
    pushed_set, popped_set, remaining_set = set(pushed), set(popped), set(remaining)
    problems = []
    if len(pushed_set) != len(pushed):
        problems.append("a push id was handed out twice")
    invented = (popped_set | remaining_set) - pushed_set
    if invented:
        problems.append(f"ids popped or on the stack but never pushed: {sorted(invented)[:5]}")
    lost = pushed_set - popped_set - remaining_set
    if lost:
        problems.append(f"pushed ids neither popped nor on the stack: {sorted(lost)[:5]}")
    both = popped_set & remaining_set
    if both:
        problems.append(f"ids both popped and still on the stack: {sorted(both)[:5]}")
    return problems


@dataclass
class Round:
    started: float
    seconds: float
    ops: int
    pops: int
    shared: int  # ids returned by more than one pop
    lines: Counter  # trace-hook calls per algorithm line
    problems: list[str]


def live_round(stack, plan, tracer: Optional[Tracer] = None) -> Round:
    """One closed-loop round: each thread runs its plan until one of them
    has finished, so the clock covers only time when both contend.  Run to
    the end of both plans, about 40% of a round was one thread running
    alone, and how much varied with how unevenly the GIL was shared."""
    barrier = threading.Barrier(len(plan) + 1)
    pushed: list[list[int]] = [[] for _ in plan]
    popped: list[list[int]] = [[] for _ in plan]
    lines = [Counter() for _ in plan]
    done = [0] * len(plan)
    finished: list[float] = []
    stop: list[bool] = []  # non-empty once any thread has left its loop
    errors: list[str] = []
    cpus = sorted(os.sched_getaffinity(0))

    def worker(i: int) -> None:
        if len(cpus) >= len(plan):
            # One CPU per thread: left to the scheduler, the two threads
            # sometimes share a CPU and then run one after the other, a few
            # GIL handoffs per round instead of thousands.
            try:
                os.sched_setaffinity(0, {cpus[i]})
            except OSError:
                pass  # unpinned still runs; it is only less steady
        my_pushed, my_popped, my_lines = pushed[i], popped[i], lines[i]
        hook = None
        if tracer is not None:
            def hook(line: int) -> None:
                my_lines[line] += 1

        def one(is_push: bool, value: int) -> None:
            if is_push:
                element = stack.make_element(value)
                stack.push(element, hook)
                my_pushed.append(element.push_id)
            else:
                result = stack.pop(hook)
                if isinstance(result, Element):
                    my_popped.append(result.push_id)

        if tracer is not None:
            one = tracer.wrap("live.op", one)
        barrier.wait()
        try:
            for is_push, value in plan[i]:
                if stop:
                    break
                one(is_push, value)
                done[i] += 1
            else:
                finished.append(perf_counter())
        except Exception as exc:  # a crashed thread is a failed round
            errors.append(f"thread {i + 1}: {exc!r}")
        stop.append(True)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(plan))]
    for t in threads:
        t.start()
    barrier.wait()
    started = perf_counter()
    for t in threads:
        t.join()
    seconds = min(finished, default=perf_counter()) - started

    all_popped = [p for per_thread in popped for p in per_thread]
    remaining = [e.push_id for e in stack.logical_state()]
    problems = errors + conservation_problems(
        [p for per_thread in pushed for p in per_thread], all_popped, remaining
    )
    shared = sum(1 for n in Counter(all_popped).values() if n > 1)
    if isinstance(stack, TreiberStack) and shared:
        problems.append(f"the baseline stack returned {shared} ids more than once")
    return Round(
        started=started,
        seconds=seconds,
        ops=sum(done),
        pops=sum(1 for p, n in zip(plan, done) for is_push, _ in p[:n] if not is_push),
        shared=shared,
        lines=sum(lines, Counter()),
        problems=problems,
    )


def live_phase(
    plans,
    seconds: float,
    stack_class: Callable = RelaxedStack,
    tracer: Optional[Tracer] = None,
    max_rounds: Optional[int] = None,
    speed: Optional[HostSpeed] = None,
) -> Outcome:
    outcome = Outcome("rounds")
    rounds: list[Round] = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        # Discarded warm-up: a process's first contended round runs several
        # times faster than the ones after it.
        outcome.tally(live_round(stack_class(), plans[-1]).problems)
        deadline = perf_counter() + seconds
        while True:
            if speed is not None:
                speed.probe_cpus()  # the round runs on every CPU
            r = live_round(stack_class(), plans[len(rounds) % len(plans)], tracer)
            rounds.append(r)
            outcome.add(r.started, r.seconds, r.ops, r.problems)
            if perf_counter() >= deadline or len(rounds) == max_rounds:
                break
        if speed is not None:
            speed.probe_cpus()
    finally:
        sys.setswitchinterval(old_interval)
    if tracer is not None:
        lines = sum((r.lines for r in rounds), Counter())
        attempts = lines[3] + lines[16]  # one top load per loop iteration
        pops = sum(r.pops for r in rounds)
        shared = sum(r.shared for r in rounds)
        outcome.layers.update(
            {
                "relaxed_stack.attempts_per_op": attempts / outcome.ops,
                "relaxed_stack.useful_ratio": outcome.ops / attempts,
                "relaxed_stack.helps_per_op": (lines[10] + lines[25]) / outcome.ops,
                "relaxed_stack.shared_returns": shared,
            }
        )
        outcome.notes.append(f"relaxed_stack.shared_returns = {shared} of {pops} pops")
    return outcome


def cas_us(calls: int = 200_000) -> float:
    """Microseconds per uncontended AtomicReference.compare_and_set."""
    ref = AtomicReference(None)
    cas = ref.compare_and_set
    token = object()
    started = perf_counter()
    for _ in range(calls // 2):
        cas(None, token)
        cas(token, None)
    return (perf_counter() - started) / calls * 1e6


# ---------------------------------------------------------------------------
# stress-check
# ---------------------------------------------------------------------------

_SUMMARY_FIELD = re.compile(r"(\w+)=(\d+)\b")
VERDICT_WORDS = ("REJECTED", "UNDECIDED", "MALFORMED")


@dataclass
class RoundTrip:
    started: float
    seconds: float
    problems: list[str]
    counters: dict[str, int]  # the integer fields of stress's summary line
    events: int


def witness_problems(history_path: Path) -> list[str]:
    """The witness must place every completed operation exactly once.

    Both files are read with plain string splitting, not with the package's
    own parser, so a parser fault cannot hide a gap."""
    completed = sorted(
        int(fields[2])
        for fields in (line.split() for line in history_path.read_text().splitlines())
        if len(fields) == 6 and fields[3] == "RES"
    )
    witness_path = Path(f"{history_path}.witness")
    try:
        placed = sorted(
            int(op)
            for line in witness_path.read_text().splitlines()
            for op in line.split(":", 1)[1].split("->")[0].split(",")
        )
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable witness {witness_path.name}: {exc!r}"]
    if placed != completed:
        return [
            f"{witness_path.name} places ops {placed[:8]}..., "
            f"history completed {completed[:8]}..."
        ]
    return []


def stress_check_item(
    workdir: Path,
    history_seed: int,
    ops_per_thread: int,
    tracer: Optional[Tracer] = None,
    tamper: Optional[Callable[[Path], None]] = None,
    speed: Optional[HostSpeed] = None,
) -> RoundTrip:
    """`multistack stress` then `multistack check`, timed from the start of
    stress to the verdict.  tamper, if given, edits the history in between."""
    path = workdir / f"{history_seed}.history"
    stress_argv = [
        "stress", "-t", str(STRESS_THREADS), "-n", str(ops_per_thread),
        "--seed", str(history_seed), "-o", str(path),
    ]
    check_argv = ["check", str(path), "--max-ops", str(STRESS_THREADS * ops_per_thread)]
    stress = check = cli.main
    if tracer is not None:
        stress = tracer.wrap("cli.stress", cli.main)
        check = tracer.wrap("cli.check", cli.main)

    def round_trip() -> tuple[int, int]:
        stress_code = stress(stress_argv)
        if tamper is not None:
            tamper(path)
        with sampling(speed):  # check runs no thread but this one; stress does
            return stress_code, check(check_argv)

    if tracer is not None:
        round_trip = tracer.wrap("stress_check.history", round_trip)
    printed = io.StringIO()
    problems: list[str] = []
    with redirect_stdout(printed):
        started = perf_counter()
        try:
            stress_code, check_code = round_trip()
        except Exception as exc:  # a crash is a failed history, not the end of the run
            stress_code, check_code = 0, -1
            problems.append(f"history seed {history_seed}: {exc!r}")
        seconds = perf_counter() - started
    output = printed.getvalue().splitlines()
    if stress_code != 0:
        violations = [line for line in output if line.startswith("CONSERVATION")]
        problems.append(
            f"history seed {history_seed}: stress exited {stress_code}: {violations[:2]}"
        )
    if check_code == 0:
        problems.extend(witness_problems(path))
    elif check_code != -1:
        verdict = [line for line in output if line.split(":")[0] in VERDICT_WORDS]
        problems.append(
            f"history seed {history_seed}: check exited {check_code}: {verdict[:1]}"
        )
    events = len(path.read_text().splitlines()) if path.exists() else 0
    for leftover in (path, Path(f"{path}.witness")):
        leftover.unlink(missing_ok=True)
    counters = {k: int(v) for k, v in _SUMMARY_FIELD.findall(output[0])} if output else {}
    return RoundTrip(started, seconds, problems, counters, events)


def stress_phase(
    seeds: list[int],
    size: Size,
    seconds: float,
    scratch: Path,
    tracer: Optional[Tracer] = None,
    count: Optional[int] = None,
    tamper: Optional[Callable[[Path], None]] = None,
    speed: Optional[HostSpeed] = None,
) -> Outcome:
    """Round trips over the seed series until seconds have passed, or
    exactly count of them."""
    outcome = Outcome("histories")
    ops = STRESS_THREADS * size.stress_ops_per_thread
    totals: Counter = Counter()
    events = 0
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="stress-", dir=scratch))
    try:
        deadline = perf_counter() + seconds
        for history_seed in itertools.cycle(seeds):
            trip = stress_check_item(
                workdir, history_seed, size.stress_ops_per_thread, tracer, tamper, speed
            )
            outcome.add(trip.started, trip.seconds, ops, trip.problems)
            totals.update(trip.counters)
            events += trip.events
            done = len(outcome.samples)
            if done == count or (count is None and perf_counter() >= deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # retries counts loop iterations beyond the first of each operation.
    attempts = outcome.ops + totals["retries"]
    outcome.layers.update(
        {
            "relaxed_stack.attempts_per_op": attempts / outcome.ops,
            "relaxed_stack.useful_ratio": outcome.ops / attempts,
            "relaxed_stack.helps_per_op": totals["helps"] / outcome.ops,
            "relaxed_stack.shared_returns": totals["shared_returns"],
            "history.events_per_op": events / outcome.ops,
        }
    )
    outcome.notes.append(
        f"relaxed_stack.shared_returns = {totals['shared_returns']} of {totals['pops']} pops"
    )
    return outcome


# ---------------------------------------------------------------------------
# explore-2x2
# ---------------------------------------------------------------------------


def _judge(run) -> tuple[bool, bool, bool]:
    """What `multistack explore` does with one run: (set-linearizable,
    shares a return, plainly linearizable if it shares one)."""
    set_ok = checker.check_set_linearizable(run.history, max_ops=EXPLORE_MAX_OPS).accepted
    shared = cli.history_shares_return(run.history)
    plain_ok = shared and checker.check_linearizable(run.history, max_ops=EXPLORE_MAX_OPS).accepted
    return set_ok, shared, plain_ok


def explore_phase(
    mixes, size: Size, tracer: Optional[Tracer] = None, speed: Optional[HostSpeed] = None
) -> Outcome:
    """One pass over the whole family.  An item is one interleaving: the
    simulator producing it and every verdict on it."""
    outcome = Outcome("interleavings")
    threads, ops_per_thread = size.family
    advance: Callable = next
    if tracer is not None:
        advance = tracer.wrap("simulator.explore", next)

    def interleaving(runs):
        run = advance(runs, None)
        return (run, None) if run is None else (run, _judge(run))

    if tracer is not None:
        interleaving = tracer.wrap("explore.interleaving", interleaving)
    distinct = set()
    shared_runs = rejected = events = 0
    with sampling(speed):
        for programs in mixes:
            scenario = simulator.Scenario(programs=programs)
            runs = simulator.explore(scenario, max_steps=EXPLORE_MAX_STEPS)
            while True:
                started = perf_counter()
                try:
                    run, verdicts = interleaving(runs)
                except Exception as exc:  # a crash ends this mix, not the run
                    outcome.tally([f"mix {programs}: {exc!r}"])
                    break
                seconds = perf_counter() - started
                if run is None:  # the search unwinding after the mix's last run
                    outcome.seconds += seconds
                    break
                set_ok, shared, plain_ok = verdicts
                problems = []
                if not set_ok:
                    rejected += 1
                    problems.append(f"schedule {run.schedule} is not set-linearizable")
                if shared:
                    shared_runs += 1
                    if plain_ok:
                        problems.append(
                            f"schedule {run.schedule} shares a return yet is linearizable"
                        )
                outcome.add(started, seconds, threads * ops_per_thread, problems)
                distinct.add(
                    tuple(
                        (e.process, e.op_id, e.kind, e.payload)
                        for e in run.history.events
                        if e.kind is not EventKind.STEP
                    )
                )
                events += len(run.history.events)
    counts = (len(outcome.samples), len(distinct), shared_runs)
    expected = FAMILY_COUNTS[size.family]
    if counts != expected:
        outcome.failed += 1
        outcome.problems.append(
            f"family {threads}x{ops_per_thread}: (interleavings, distinct, shared) = "
            f"{counts}, expected {expected}"
        )
    outcome.notes.append(
        f"explore_s = {outcome.seconds} s for the {threads}x{ops_per_thread} family: "
        f"{counts[0]} interleavings, {counts[1]} distinct INV/RES histories, "
        f"{shared_runs} shared-return runs, {rejected} set-linearizability rejections"
    )
    outcome.layers.update(
        {
            "simulator.runs": counts[0],
            "simulator.distinct_histories": counts[1],
            "history.events_per_op": events / max(outcome.ops, 1),
        }
    )
    return outcome


# ---------------------------------------------------------------------------
# Per-layer spans
# ---------------------------------------------------------------------------


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap each layer's public functions in spans while the block runs.

    The checker and the CLI call some of these through names they imported
    themselves, so those names are wrapped where they are looked up.  A
    function a later version no longer has is skipped, and the numbers
    derived from it are left out."""

    def count_pairs(pairs) -> None:
        tracer.counts.update(precedence_pairs=len(pairs))

    targets = [
        (elements.PushIdSource, "element", "elements.make_element", None),
        (relaxed_stack.RelaxedStack, "push", "relaxed_stack.push", None),
        (relaxed_stack.RelaxedStack, "pop", "relaxed_stack.pop", None),
        (history.Recorder, "invocation", "history.record", None),
        (history.Recorder, "response", "history.record", None),
        (history.Recorder, "step", "history.record", None),
        (history, "dumps", "history.dumps", None),
        (history, "loads", "history.loads", None),
        (checker, "group_classes", "checker.group_classes", None),
        (checker, "lifted_precedence", "checker.lifted_precedence", count_pairs),
        (checker, "replay", "spec_machine.replay", None),
        (checker, "check_set_linearizable", "checker.check", None),
        (checker, "check_linearizable", "checker.check", None),
        (cli, "check_set_linearizable", "checker.check", None),
        (cli, "check_linearizable", "checker.check", None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in targets:
            original = vars(owner).get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_result))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_layers(tracer: Tracer, items: int, ops: int) -> dict[str, float]:
    """Per-layer numbers of one traced phase.  Per call: mean self time.
    Per item (round, history or interleaving): self seconds summed over the
    item.  A layer the phase never called is left out."""
    spans = {name: layer for name, layer in tracer.summarize().items() if layer.calls}
    layers: dict[str, float] = {}
    for metric, name in (
        ("elements.make_element_us", "elements.make_element"),
        ("relaxed_stack.push_us", "relaxed_stack.push"),
        ("relaxed_stack.pop_us", "relaxed_stack.pop"),
    ):
        if name in spans:
            layers[metric] = spans[name].mean_self_us()
    if "history.record" in spans:
        layers["history.record_us_per_op"] = spans["history.record"].self_ns / ops / 1e3
    for metric, name in (
        ("history.dumps_s", "history.dumps"),
        ("history.loads_s", "history.loads"),
        ("cli.stress_s", "cli.stress"),
        ("cli.check_s", "cli.check"),
    ):
        if name in spans:
            layers[metric] = spans[name].mean_total_s()
    for metric, name in (
        ("checker.group_s", "checker.group_classes"),
        ("checker.precedence_s", "checker.lifted_precedence"),
        ("checker.search_s", "checker.check"),
        ("spec_machine.replay_s", "spec_machine.replay"),
    ):
        if name in spans:
            layers[metric] = spans[name].self_ns / items / 1e9
    if "checker.lifted_precedence" in spans:
        layers["checker.precedence_pairs"] = tracer.counts["precedence_pairs"] / items
    if "checker.check" in spans:
        check = spans["checker.check"]
        layers["checker.verdict_us"] = check.total_ns / check.calls / 1e3
        layers["checker.verdicts"] = check.calls
    if "simulator.explore" in spans:
        layers["simulator.sim_s"] = spans["simulator.explore"].self_ns / 1e9
    return layers
