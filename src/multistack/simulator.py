"""Deterministic runs of the relaxed stack under chosen schedules.

The simulator steps the stack's own algorithm text, the per-line
transitions push_step and pop_step of relaxed_stack, over the memory of a
checked RelaxedStack.  One scheduled slot resumes a thread for exactly one
shared-memory action plus the private work around it: an invocation
fuses into its operation's first action, a return into its last, and a
private line into the action before it (relaxed_stack lists the slots of
each operation).  Shared actions are never fused with each other, so
every interleaving of shared actions is a reachable schedule.

A run's whole state is its Run: the schedule taken so far, its memory and,
per busy thread, the operation's next line and its registers, all plain
data.  Run.key() is the configuration it stands in, free of the schedule
that reached it.  So a run branches the way stateful model checkers do
(SPIN, Holzmann, IEEE TSE 1997): Run.fork copies it, memory included,
and the copy goes on from where the original stands, with no prefix
replayed.  Run(scenario, schedule) still replays an external schedule
from the root, checked slot by slot but with no events.  A schedule,
replayed or reached by forks, yields byte-identical histories.  A run
holds no reference cycle, so reference counting frees it and its memory
as soon as the last reference to it drops.

Histories produced here open with a provenance prologue: a sequential run
(process 0) that builds the initial memory, pushing each seeded element
and immediately popping the ones seeded as deleted.  The prologue makes
the emitted history self-contained, so the checker can consume it
without being told about the seed.

plan numbers every scenario one way: seeded elements take push ids 1..k
and pushes the next ones; the prologue's operations (one per seeded node,
two per deleted one) take the first op ids and the planned ones the rest.

Every slot raises SimulationInvariantError on what the checked stack
records: a deletion flag reset, a published link rewritten, or top moved
by neither a swing nor a push.  Only the last two can close a cycle, so a
chain is walked only at a run's end: once per end configuration on the walk.

uniform_run runs a scenario under a schedule drawn at random, and
seeded_history draws a large run from one seed, the same bytes on every
host: the one random draw of the tests and tools/bench_checker.py.

sweep is the exhaustive check behind `multistack explore`, the acceptance
gates and the mutant tests: it counts every run of each scenario on the
configuration walk that reachable_configs lists, and judges each distinct
history of invocations and responses once.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .checker import check_linearizable, check_set_linearizable
from .elements import EMPTY, Element, _Empty, _new
from .history import Event, EventKind, History, OpName, Payload, history_shares_return
from .relaxed_stack import DONE, PRIVATE_LINES, RelaxedStack, _GuardedNode, pop_step, push_step

# Module-level names: a global load is cheaper than an Enum class lookup.
_INVOCATION, _RESPONSE, _STEP = EventKind.INVOCATION, EventKind.RESPONSE, EventKind.STEP
_PUSH = OpName.PUSH


class ScheduleError(Exception):
    """A schedule slot named a thread with nothing to do."""


class FixtureFormatError(ValueError):
    def __init__(self, lineno: Optional[int], message: str) -> None:
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class SimulationInvariantError(AssertionError):
    """A per-step invariant failed; the run is not trustworthy past here."""


class ExplorationTruncated(Exception):
    """A run that never ends: it outran explore's step bound, or the
    configuration walk met a configuration again on its own path."""


# ---------------------------------------------------------------------------
# Scenario and run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedOp:
    op_id: int
    name: OpName
    element: Optional[Element] = None  # pushes only

    def __post_init__(self) -> None:
        if (self.name is OpName.PUSH) != (self.element is not None):
            raise ValueError("pushes carry an element; pops do not")


Expectation = Union[bool, int, _Empty]


@dataclass(frozen=True)
class Scenario:
    """Initial memory, per-thread programs, and optional schedule and checks.

    initial_memory lists (element, deleted) pairs deepest first; the last
    pair is the initial top.  Schedules use 1-based thread indices, the
    numbering the fixture files and printed runs share.
    """

    initial_memory: tuple[tuple[Element, bool], ...] = ()
    programs: tuple[tuple[PlannedOp, ...], ...] = ()
    schedule: Optional[tuple[int, ...]] = None
    expect_returns: Optional[tuple[Expectation, ...]] = None
    expect_logical: Optional[tuple[int, ...]] = None
    expect_memory: Optional[tuple[tuple[int, bool], ...]] = None


_UNSET = object()  # register t before the operation's first top load


class _Thread:
    __slots__ = ("program", "op_index", "returns", "step", "line", "t", "node")

    def __init__(self, program: tuple[PlannedOp, ...]) -> None:
        self.program = program
        self.op_index = 0
        self.returns: list[Payload] = []  # finished operations' results
        self.step = None  # the current operation's push_step or pop_step; None when idle
        self.line: Optional[int] = None  # the line it runs next
        self.t = _UNSET  # its register: the top it loaded last
        self.node = None  # a push's node, made when the push starts


class Run:
    """One run in flight: a checked stack seeded with the scenario's
    initial memory, and its threads.  The given schedule (1-based) is
    replayed first through take, with no events."""

    def __init__(self, scenario: Scenario, schedule: Sequence[int] = ()) -> None:
        self.stack = RelaxedStack(checked=True)
        self._top = self.stack._top
        self.nodes = []  # every node made, in the order made
        top = None
        for element, deleted in scenario.initial_memory:
            below, top = top, self._new_node(element)
            top.next, top.elim, top.published = below, deleted, True
        self._top.compare_and_set(None, top)
        self.threads = [_Thread(program) for program in scenario.programs]
        self.schedule: list[int] = []
        for entry in schedule:
            self.take(entry - 1)

    def _new_node(self, element: Element):
        node = self.stack._guarded_node(element)
        self.nodes.append(node)
        return node

    def enabled(self) -> list[int]:
        """0-based threads with an operation in flight or still to start."""
        return [
            i
            for i, thread in enumerate(self.threads)
            if thread.step is not None or thread.op_index < len(thread.program)
        ]

    def take(self, thread: int, events: Optional[list[Event]] = None) -> None:
        """Run one slot of the 0-based thread, appending its events to events,
        then check how the slot moved top and what its nodes recorded."""
        if not 0 <= thread < len(self.threads):
            raise ScheduleError(f"no thread {thread + 1}")
        state = self.threads[thread]
        if state.step is None and state.op_index >= len(state.program):
            raise ScheduleError(f"thread {thread + 1} has no operations left")
        op = state.program[state.op_index]
        process, op_id, name = thread + 1, op.op_id, op.name
        if state.step is None:
            if events is not None:
                events.append(_new(Event, (process, op_id, _INVOCATION, name, op.element)))
            if name is _PUSH:
                # One node per push, made up front; retries relink it.
                state.step, state.line, state.node = push_step, 3, self._new_node(op.element)
            else:
                state.step, state.line = pop_step, 16
        step, line, t, node = state.step, state.line, state.t, state.node
        top = self._top
        before = top.value
        while True:
            if events is not None:
                events.append(_new(Event, (process, op_id, _STEP, name, line)))
            line, t = step(top, node, line, t)
            if line not in PRIVATE_LINES:
                break
        if line is DONE:
            if events is not None:
                events.append(_new(Event, (process, op_id, _RESPONSE, name, t)))
            state.returns.append(t)
            state.op_index += 1
            state.step = state.line = state.node = None
            state.t = _UNSET
        else:
            state.line, state.t = line, t
        self.schedule.append(process)
        self.stack._check_move(before)
        if self.stack._violations:
            raise SimulationInvariantError("; ".join(self.stack._violations))

    def check_chain(self) -> None:
        """Walk the chain from top once, for a cycle the slot checks missed."""
        if violations := self.stack.invariant_violations:
            raise SimulationInvariantError("; ".join(violations))

    def key(self) -> tuple:
        """The run's configuration, hashable: (nodes, top, threads).  nodes
        holds every node made as (element, element its next link points
        at, deletion flag); top is the top node's element.  threads holds,
        per thread, (line, op index, registers): line is the label the
        thread executes next (None when idle) and registers are a push's
        ("node", element) and, once the operation has loaded top, its
        ("t", element) pair, None standing for the empty marker.  Runs that
        reach one state by different schedules share a key."""

        def ref(node) -> Optional[Element]:
            return None if node is None else node.element

        def registers(state: _Thread) -> tuple:
            node = () if state.node is None else (("node", state.node.element),)
            return node if state.t is _UNSET else node + (("t", ref(state.t)),)

        threads = tuple((state.line, state.op_index, registers(state)) for state in self.threads)
        nodes = frozenset((node.element, ref(node.next), node.elim) for node in self.nodes)
        return nodes, ref(self._top.value), threads

    def fork(self) -> Run:
        """A copy of this run that goes on independently, made without
        replaying: a fresh checked stack with a twin of every node, and
        threads, returns and schedule of its own.  The node fields are
        copied past the guarded setters, which would take a copied link
        for a relink.  The copy's violation list starts empty: a slot that
        recorded a violation has raised."""
        twin = Run.__new__(Run)
        twin.stack = RelaxedStack(checked=True)
        twin._top = twin.stack._top
        twin.nodes = []
        remap = {None: None, _UNSET: _UNSET}  # this run's nodes to the twin's
        for node in self.nodes:
            copy = remap[node] = _GuardedNode.__new__(_GuardedNode)
            copy.element, copy.published, copy._elim = node.element, node.published, node._elim
            copy._violations = twin.stack._violations
            twin.nodes.append(copy)
        for node in self.nodes:
            remap[node]._next = remap[node._next]
        twin._top.compare_and_set(None, remap[self._top.value])
        twin.threads = []
        for state in self.threads:
            copy = _Thread.__new__(_Thread)
            copy.program, copy.op_index = state.program, state.op_index
            copy.returns, copy.step, copy.line = state.returns.copy(), state.step, state.line
            copy.t, copy.node = remap[state.t], remap[state.node]
            twin.threads.append(copy)
        twin.schedule = self.schedule.copy()
        return twin


# ---------------------------------------------------------------------------
# Provenance prologue and numbering
# ---------------------------------------------------------------------------


def _prologue_ops(memory: Iterable[tuple[Element, bool]]) -> list[tuple]:
    """The prologue's operations in order, as (name, argument, result):
    push every seeded element in depth order, and pop each one seeded as
    deleted right after its push, while it is still on top."""
    ops = []
    for element, deleted in memory:
        ops.append((OpName.PUSH, element, True))
        if deleted:
            ops.append((OpName.POP, None, element))
    return ops


def prologue_events(scenario: Scenario) -> list[Event]:
    """A sequential history (process 0) that legitimately builds the seeded
    memory, one operation after another, numbered from 1."""
    events: list[Event] = []
    for op_id, (name, argument, result) in enumerate(_prologue_ops(scenario.initial_memory), 1):
        events.append(_new(Event, (0, op_id, _INVOCATION, name, argument)))
        events.append(_new(Event, (0, op_id, _RESPONSE, name, result)))
    return events


def plan(memory: Iterable[tuple[int, bool]], ops: Iterable[tuple], **clauses) -> Scenario:
    """The scenario that seeds memory's (value, deleted) pairs, deepest
    first, and runs ops, each (1-based thread, value to push or None for a
    pop), numbered in the order given; clauses are its schedule and EXPECT
    fields."""
    initial = tuple(
        (Element(value, push_id), deleted) for push_id, (value, deleted) in enumerate(memory, 1)
    )
    push_ids = itertools.count(len(initial) + 1)
    programs: list[list[PlannedOp]] = []
    for op_id, (thread, value) in enumerate(ops, len(_prologue_ops(initial)) + 1):
        programs.extend([] for _ in range(thread - len(programs)))
        if value is None:
            programs[thread - 1].append(PlannedOp(op_id, OpName.POP))
        else:
            element = Element(value, next(push_ids))
            programs[thread - 1].append(PlannedOp(op_id, OpName.PUSH, element))
    return Scenario(initial, tuple(map(tuple, programs)), **clauses)


# ---------------------------------------------------------------------------
# Scheduled replay and seeded draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    history: History
    returns: tuple[tuple[Payload, ...], ...]  # per thread, in program order
    logical: tuple[Element, ...]
    memory: tuple[tuple[Element, bool], ...]


def replay_scenario(scenario: Scenario) -> ScenarioResult:
    """Run the scenario's schedule to its end and package the outcome."""
    if scenario.schedule is None:
        raise ValueError("scenario has no schedule to replay")
    run = Run(scenario)
    events = prologue_events(scenario)
    for entry in scenario.schedule:
        run.take(entry - 1, events)
    run.check_chain()
    return ScenarioResult(
        history=History(tuple(events)),
        returns=tuple(tuple(state.returns) for state in run.threads),
        logical=run.stack.logical_state(),
        memory=tuple(run.stack.memory_snapshot()),
    )


def verify_expectations(scenario: Scenario, result: ScenarioResult) -> list[str]:
    """Compare a result against the scenario's EXPECT clauses; returns
    human-readable mismatch descriptions (empty means all pass)."""
    problems = []
    if scenario.expect_returns is not None:
        actual = [value for per_thread in result.returns for value in per_thread]
        expected = scenario.expect_returns
        if len(actual) != len(expected):
            problems.append(
                f"expected {len(expected)} returns, run produced {len(actual)}"
            )
        else:
            for index, (want, got) in enumerate(zip(expected, actual)):
                if return_token(want) != return_token(got):
                    problems.append(
                        f"return {index + 1}: expected {return_token(want)}, got {got!r}"
                    )
    if scenario.expect_logical is not None:
        got_values = tuple(e.value for e in result.logical)
        if got_values != scenario.expect_logical:
            problems.append(
                f"logical state: expected {scenario.expect_logical}, got {got_values}"
            )
    if scenario.expect_memory is not None:
        got_memory = tuple((e.value, elim) for e, elim in result.memory)
        if got_memory != scenario.expect_memory:
            problems.append(
                f"memory: expected {scenario.expect_memory}, got {got_memory}"
            )
    return problems


def uniform_run(scenario: Scenario, rng: random.Random) -> tuple[Run, History]:
    """Run the scenario to its end, each slot going to a thread rng draws
    from enabled() (random schedule sampling, Burckhardt et al., ASPLOS
    2010); return the finished run and its history, prologue first."""
    run = Run(scenario)
    events = prologue_events(scenario)
    while enabled := run.enabled():
        run.take(rng.choice(enabled), events)
    return run, History(tuple(events))


def seeded_history(seed: int, threads: int = 8, ops_per_thread: int = 250) -> History:
    """A large deterministic multi-thread history: every thread runs
    ops_per_thread operations, each a push or a pop at even odds, under a
    uniform schedule; one seed gives one history on every host."""
    rng = random.Random(seed)
    pushes = itertools.count(1)  # the k-th push pushes k
    ops = [
        (thread, next(pushes) if rng.random() < 0.5 else None)
        for thread in range(1, threads + 1)
        for _ in range(ops_per_thread)
    ]
    return uniform_run(plan((), ops), rng)[1]


# ---------------------------------------------------------------------------
# Exhaustive exploration
# ---------------------------------------------------------------------------


class ExploredRun(NamedTuple):
    schedule: tuple[int, ...]
    history: History


def explore(scenario: Scenario, max_steps: int = 500) -> Iterator[ExploredRun]:
    """Depth-first enumeration of every schedule of the scenario, yielding
    one finished run per interleaving, in deterministic order (lowest
    thread index first at every branch).  The first branch at each point
    carries the run on; each other one goes on from a fork taken there."""
    events: list[Event] = prologue_events(scenario)
    run = Run(scenario)
    branches: list[tuple[Run, int, int]] = []  # (fork, events mark, thread)
    while True:
        enabled = run.enabled()
        if enabled:
            if len(run.schedule) >= max_steps:
                raise ExplorationTruncated(
                    f"run exceeded {max_steps} slots at schedule {tuple(run.schedule)}"
                )
            if len(enabled) > 1:
                mark = len(events)
                branches.extend((run.fork(), mark, i) for i in reversed(enabled[1:]))
            run.take(enabled[0], events)
            continue
        run.check_chain()
        yield _new(ExploredRun, (tuple(run.schedule), History(tuple(events))))
        if not branches:
            return
        run, mark, thread = branches.pop()
        del events[mark:]
        run.take(thread, events)


def all_program_mixes(
    threads: int, ops_per_thread: int
) -> list[tuple[tuple[PlannedOp, ...], ...]]:
    """Every assignment of push/pop to the threads' program slots, planned
    in thread-major order; the k-th push of a mix pushes k."""
    mixes = []
    for bits in itertools.product((True, False), repeat=threads * ops_per_thread):
        pushes = itertools.count(1)
        ops = [
            (i // ops_per_thread + 1, next(pushes) if push else None) for i, push in enumerate(bits)
        ]
        mixes.append(plan((), ops).programs)
    return mixes


class FamilySweep(NamedTuple):
    """What sweep found; mixes and rejected are in exploration order."""

    mixes: tuple[tuple[tuple[tuple[PlannedOp, ...], ...], int], ...]  # (programs, runs)
    accepted: int  # set-linearizable runs
    shared: int  # runs in which two pops return one element
    shared_lin_rejected: int  # of those, the runs plain linearizability rejects
    rejected: tuple[tuple[tuple[int, ...], str], ...]  # (schedule, refutation), set-lin
    distinct_histories: int  # distinct INV/RES histories, each judged once

    @property
    def runs(self) -> int:
        return sum(runs for _, runs in self.mixes)


def sweep(scenarios: Iterable[Scenario]) -> FamilySweep:
    """Count every run of each scenario on its configuration walk and judge
    each distinct sequence of a run's invocations and responses once:
    set-linearizable, with the checker capped at the scenario's operation
    count, the prologue's included (every run completes them all), and,
    when two pops return the same element, re-checked for plain
    linearizability.  Only a scenario with a rejected history is explored
    run by run, to list the rejected schedules."""
    verdicts: dict = {}  # INV/RES events -> (set-lin verdict, shares a return, lin rejects)
    mixes = []
    accepted = shared = shared_lin_rejected = 0
    rejected = []
    for scenario in scenarios:
        max_ops = len(_prologue_ops(scenario.initial_memory)) + sum(map(len, scenario.programs))
        prologue = tuple(prologue_events(scenario))
        walk = _walk(scenario)
        _, suffixes = next(walk)  # the root's, filled in once the walk ends
        for _ in walk:
            pass
        runs, accepted_before = 0, accepted
        for suffix, count in suffixes.items():
            key = prologue + suffix
            if key not in verdicts:
                history = History(key)
                shares = history_shares_return(history)
                verdicts[key] = (
                    check_set_linearizable(history, max_ops=max_ops),
                    shares,
                    shares and not check_linearizable(history, max_ops=max_ops).accepted,
                )
            verdict, shares, lin_rejected = verdicts[key]
            runs += count
            accepted += verdict.accepted * count
            shared += shares * count
            shared_lin_rejected += lin_rejected * count
        if accepted - accepted_before < runs:
            for run in explore(scenario):
                verdict = verdicts[tuple(e for e in run.history.events if e.kind is not _STEP)][0]
                if not verdict.accepted:
                    rejected.append((run.schedule, verdict.refutation))
        mixes.append((scenario.programs, runs))
    return FamilySweep(
        tuple(mixes), accepted, shared, shared_lin_rejected, tuple(rejected), len(verdicts)
    )


def sweep_family(threads: int, ops_per_thread: int) -> FamilySweep:
    """sweep over every push/pop mix of the family."""
    mixes = all_program_mixes(threads, ops_per_thread)
    return sweep(Scenario(programs=programs) for programs in mixes)


def reachable_configs(scenario: Scenario) -> Iterator[tuple[int, ...]]:
    """For each distinct Run.key() any schedule can reach, the schedule of
    the first run to reach it, in the order of _walk."""
    return (schedule for schedule, _ in _walk(scenario))


def _walk(scenario: Scenario) -> Iterator[tuple[tuple[int, ...], Counter]]:
    """Depth first over the configurations the scenario can reach, lowest
    thread first, each Run.key() expanded once, every branch but the last
    from a fork.  On first reaching a key, yields the schedule that got
    there and a Counter, filled by the walk's end, from each INV/RES suffix
    of the runs from that key on to its number of schedules.  A run's
    future depends only on its key, so each edge's slot is taken and
    checked once, and each end configuration's chain walked once.  A key
    met again on its own path is a run that never ends."""
    done: dict = {}  # key -> its suffix counts; None while the walk below it is open
    stack: list = []  # per open key: (run, key, threads left, suffix counts, INV/RES events in)
    run, edge = Run(scenario), ()
    while True:
        key = run.key()
        if key not in done:
            suffixes = Counter()
            yield tuple(run.schedule), suffixes
            threads = run.enabled()
            if not threads:
                run.check_chain()
                suffixes[()] = 1
            done[key] = None
            stack.append((run, key, threads[::-1], suffixes, edge))
        elif done[key] is None:
            raise ExplorationTruncated(f"a run cycles at schedule {tuple(run.schedule)}")
        else:
            stack[-1][3].update({edge + suffix: n for suffix, n in done[key].items()})
        while not stack[-1][2]:
            _, key, _, suffixes, edge = stack.pop()
            done[key] = suffixes
            if not stack:
                return
            stack[-1][3].update({edge + suffix: n for suffix, n in suffixes.items()})
        run, _, threads, _, _ = stack[-1]
        thread = threads.pop()
        if threads:
            run = run.fork()
        events: list[Event] = []
        run.take(thread, events)
        edge = tuple(e for e in events if e.kind is not _STEP)


# ---------------------------------------------------------------------------
# Stall probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    steps_used: tuple[tuple[int, int], ...]  # (thread, slots its op took)
    failures: tuple[int, ...]  # 0-based threads whose op missed the budget


def progress_probe(scenario: Scenario, schedule: Sequence[int], stalled: int) -> ProbeReport:
    """Freeze one thread wherever the schedule leaves it and let every
    other thread run round robin.  Each other thread must finish its
    current operation (or its next, if idle) within probe_budget of its
    own slots, taken where the schedule ends; no steps of the frozen
    thread are ever taken."""
    run = Run(scenario, schedule)
    budget = probe_budget(run)
    targets = {
        i: run.threads[i].op_index + 1 for i in run.enabled() if i != stalled
    }
    used = {i: 0 for i in targets}
    failures = []
    active = sorted(targets)
    while active:
        for i in list(active):
            if run.threads[i].op_index >= targets[i]:
                active.remove(i)
                continue
            if used[i] >= budget:
                failures.append(i)
                active.remove(i)
                continue
            run.take(i)
            used[i] += 1
    return ProbeReport(tuple(sorted(used.items())), tuple(sorted(failures)))


def probe_budget(run: Run) -> int:
    """The step allowance used by the sweep: six slots per node still
    reachable from the top, plus six for the empty case.  Deleted but
    not yet unlinked nodes count: each one can cost a traversing thread a
    help round, so the bound must pay for them.  Counting only undeleted
    nodes is genuinely too tight: park a pop between its flag write and
    its swing and the chain holds a deleted top with nothing live behind
    it, yet a fresh push still needs a failed swing, a reread, a help and
    a retry before it lands."""
    return 6 * (len(run.stack.memory_snapshot()) + 1)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def parse_fixture(text: str) -> Scenario:
    """Parse the fixture format:

        INIT (17,F) (11,T) ...        seeded memory, deepest first
        OP <thread> PUSH <value>      one planned operation
        OP <thread> POP
        SCHED 1 2 3 ...               slot sequence, 1-based threads
        EXPECT RETURNS 13 empty true  planned-op returns, program order
        EXPECT LOGICAL 17 7
        EXPECT MEMORY (17,F) (8,F)

    INIT, SCHED and each EXPECT clause may appear once.  '#' starts a
    comment; blank lines are ignored.  Op and push ids are plan's, the OP
    lines taken in line order."""
    initial: Optional[list[tuple[int, bool]]] = None
    ops: list[tuple[int, int, Optional[int]]] = []  # (lineno, thread, value|None)
    schedule: Optional[tuple[int, ...]] = None
    expect: dict[str, tuple] = {}  # EXPECT clause -> its values

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "INIT":
            if initial is not None:
                raise FixtureFormatError(lineno, "INIT given twice")
            initial = [_parse_memory_pair(tok, lineno) for tok in fields[1:]]
        elif keyword == "OP":
            if len(fields) < 3:
                raise FixtureFormatError(lineno, "OP needs a thread and an operation")
            thread = _parse_int(fields[1], lineno, "thread")
            if thread < 1:
                raise FixtureFormatError(lineno, "threads are numbered from 1")
            if fields[2] == "PUSH":
                if len(fields) != 4:
                    raise FixtureFormatError(lineno, "OP ... PUSH needs one value")
                ops.append((lineno, thread, _parse_int(fields[3], lineno, "value")))
            elif fields[2] == "POP":
                if len(fields) != 3:
                    raise FixtureFormatError(lineno, "OP ... POP takes no value")
                ops.append((lineno, thread, None))
            else:
                raise FixtureFormatError(lineno, f"unknown operation {fields[2]!r}")
        elif keyword == "SCHED":
            if schedule is not None:
                raise FixtureFormatError(lineno, "SCHED given twice")
            schedule = tuple(_parse_int(tok, lineno, "schedule entry") for tok in fields[1:])
        elif keyword == "EXPECT":
            if len(fields) < 2:
                raise FixtureFormatError(lineno, "EXPECT needs a clause")
            clause = fields[1]
            if clause in expect:
                raise FixtureFormatError(lineno, f"EXPECT {clause} given twice")
            if clause == "RETURNS":
                expect[clause] = tuple(_parse_expectation(tok, lineno) for tok in fields[2:])
            elif clause == "LOGICAL":
                expect[clause] = tuple(_parse_int(tok, lineno, "value") for tok in fields[2:])
            elif clause == "MEMORY":
                expect[clause] = tuple(_parse_memory_pair(tok, lineno) for tok in fields[2:])
            else:
                raise FixtureFormatError(lineno, f"unknown EXPECT clause {clause!r}")
        else:
            raise FixtureFormatError(lineno, f"unknown keyword {keyword!r}")

    if not ops:
        raise FixtureFormatError(None, "fixture plans no operations")

    planned = {thread for _, thread, _ in ops}
    for lineno, thread, _ in ops:  # blame the first OP line above a missing thread
        if not planned.issuperset(range(1, thread)):
            raise FixtureFormatError(lineno, "threads must be numbered 1..n without gaps")

    return plan(
        initial or (),
        [(thread, value) for _, thread, value in ops],
        schedule=schedule,
        expect_returns=expect.get("RETURNS"),
        expect_logical=expect.get("LOGICAL"),
        expect_memory=expect.get("MEMORY"),
    )


def _parse_memory_pair(token: str, lineno: int) -> tuple[int, bool]:
    if not (token.startswith("(") and token.endswith(")")):
        raise FixtureFormatError(lineno, f"memory pair {token!r} needs parentheses")
    value_text, sep, flag = token[1:-1].partition(",")
    if not sep or flag not in ("T", "F"):
        raise FixtureFormatError(lineno, f"memory pair {token!r} must be (value,T|F)")
    return _parse_int(value_text, lineno, "value"), flag == "T"


def _parse_expectation(token: str, lineno: int) -> Expectation:
    if token == "true":
        return True
    if token == "empty":
        return EMPTY
    return _parse_int(token, lineno, "return value")


def return_token(value: Union[Payload, Expectation]) -> str:
    """The fixture token of a return or an expected one: true, empty or the value."""
    if value is True:
        return "true"
    if isinstance(value, _Empty):
        return "empty"
    return str(value.value if isinstance(value, Element) else value)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FixtureFormatError(lineno, f"bad {what} {token!r}") from None


def load_fixture(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_fixture(handle.read())


def load_bundled_fixture(name: str) -> Scenario:
    """Load one of the packaged scenarios (shared_pop, helped_pop,
    push_race, push_helps)."""
    from importlib.resources import files

    resource = files(__package__).joinpath("fixtures", f"{name}.txt")
    return parse_fixture(resource.read_text(encoding="utf-8"))
