"""Deterministic runs of the relaxed stack under chosen schedules.

The simulator steps the stack's own algorithm text, the push_steps and
pop_steps generators of relaxed_stack, over the memory of a checked
RelaxedStack.  One scheduled slot resumes a thread for exactly one
shared-memory action plus the private work around it: an invocation
fuses into its operation's first action, a return into its last, and a
private line into the action before it (relaxed_stack lists the slots of
each operation).  Shared actions are never fused with each other, so
every interleaving of shared actions is a reachable schedule.

A run's whole state is its Run: the schedule taken so far, its memory and
one generator per busy thread.  Run.key() is the configuration it stands
in, free of the schedule that reached it.  Generators cannot be copied,
so a run branches the way stateless model checkers do (CHESS, Musuvathi
et al., OSDI 2008): a branch rebuilds the memory and replays its schedule
from the root.  The replayed prefix emits no events and is not
re-checked, both done when its slots were first taken; the explorer
copies the prefix's events into each run it yields.
A schedule, replayed twice, yields byte-identical histories.

Histories produced here open with a provenance prologue: a sequential run
(process 0) that builds the initial memory, pushing each seeded element
and immediately popping the ones seeded as deleted.  The prologue makes
the emitted history self-contained, so the checker can consume it
without being told about the seed.

Every newly taken slot reads the checked stack's invariant violations:
its guarded nodes record a deletion flag going back to False, and it
walks its chain from the top for a cycle.  Either raises
SimulationInvariantError instead of propagating silently.

sweep is the exhaustive check behind `multistack explore`, the acceptance
gates and the mutant tests: every interleaving of each scenario, with each
distinct history of invocations and responses judged once.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .checker import check_linearizable, check_set_linearizable
from .elements import EMPTY, Element, _Empty
from .history import Event, EventKind, History, OpName, Payload, history_shares_return
from .relaxed_stack import PRIVATE_LINES, RelaxedStack, _GuardedNode, pop_steps, push_steps


class ScheduleError(Exception):
    """A schedule slot named a thread with nothing to do."""


class FixtureFormatError(ValueError):
    def __init__(self, lineno: Optional[int], message: str) -> None:
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class SimulationInvariantError(AssertionError):
    """A per-step invariant failed; the run is not trustworthy past here."""


class ExplorationTruncated(Exception):
    """A run exceeded the step bound before all threads finished."""


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


class _Thread:
    __slots__ = ("program", "op_index", "steps", "line", "returns")

    def __init__(self, program: tuple[PlannedOp, ...]) -> None:
        self.program = program
        self.op_index = 0
        self.returns: list[Payload] = []  # finished operations' results
        self.steps = None  # the current operation's generator; None when idle
        self.line: Optional[int] = None


class Run:
    """One run in flight: a checked stack memory seeded with the
    scenario's initial memory, and one generator per busy thread.  The
    given schedule (1-based) is replayed first: no events, no invariant
    checks, but each entry must still name a thread with work left."""

    def __init__(self, scenario: Scenario, schedule: Sequence[int] = ()) -> None:
        self.stack = RelaxedStack(checked=True)
        self._top = self.stack._top
        self.nodes = []  # every node made, in the order made
        top = None
        for element, deleted in scenario.initial_memory:
            below, top = top, self._new_node(element)
            top.next, top.elim = below, deleted
        self._top.compare_and_set(None, top)
        self.threads = [_Thread(program) for program in scenario.programs]
        self.schedule: list[int] = []
        for entry in schedule:
            self._slot(entry - 1, None)

    def _new_node(self, element: Element):
        node = _GuardedNode(element, self.stack._record_violation)
        self.nodes.append(node)
        return node

    def enabled(self) -> list[int]:
        """0-based threads with an operation in flight or still to start."""
        return [
            i
            for i, thread in enumerate(self.threads)
            if thread.steps is not None or thread.op_index < len(thread.program)
        ]

    def take(self, thread: int, events: Optional[list[Event]] = None) -> None:
        """Run one slot of the 0-based thread, appending its events to events,
        then check the memory's invariants."""
        self._slot(thread, events)
        violations = self.stack.invariant_violations
        if violations:
            raise SimulationInvariantError("; ".join(violations))

    def _slot(self, thread: int, events: Optional[list[Event]]) -> None:
        if not 0 <= thread < len(self.threads):
            raise ScheduleError(f"no thread {thread + 1}")
        state = self.threads[thread]
        if state.steps is None and state.op_index >= len(state.program):
            raise ScheduleError(f"thread {thread + 1} has no operations left")
        op = state.program[state.op_index]
        process = thread + 1
        if state.steps is None:
            if events is not None:
                events.append(Event(process, op.op_id, EventKind.INVOCATION, op.name, op.element))
            if op.name is OpName.PUSH:
                # One node per push, made up front; retries relink it.
                state.steps = push_steps(self._top, self._new_node(op.element))
            else:
                state.steps = pop_steps(self._top)
            state.line = next(state.steps)
        line = state.line
        try:
            while True:
                if events is not None:
                    events.append(Event(process, op.op_id, EventKind.STEP, op.name, line))
                line = next(state.steps)
                if line not in PRIVATE_LINES:
                    break
        except StopIteration as done:
            if events is not None:
                events.append(Event(process, op.op_id, EventKind.RESPONSE, op.name, done.value))
            state.returns.append(done.value)
            state.op_index += 1
            state.steps = state.line = None
        else:
            state.line = line
        self.schedule.append(process)

    def key(self) -> tuple:
        """The run's configuration, hashable: (nodes, top, threads).  nodes
        holds every node made as (element, element its next link points
        at, deletion flag); top is the top node's element.  threads holds,
        per thread, (line, op index, registers): line is the label the
        thread executes next (None when idle) and registers are its
        generator's locals as (name, element) pairs, None standing for the
        empty marker.  Runs that reach one state by different schedules
        share a key."""

        def ref(node) -> Optional[Element]:
            return None if node is None else node.element

        threads = tuple(
            (
                state.line,
                state.op_index,
                ()
                if state.steps is None
                else tuple(
                    (name, ref(value))
                    for name, value in inspect.getgeneratorlocals(state.steps).items()
                    if value is not self._top  # the shared cell, not a register
                ),
            )
            for state in self.threads
        )
        nodes = frozenset((node.element, ref(node.next), node.elim) for node in self.nodes)
        return nodes, ref(self._top.value), threads


# ---------------------------------------------------------------------------
# Provenance prologue
# ---------------------------------------------------------------------------


def prologue_events(scenario: Scenario) -> list[Event]:
    """A sequential history (process 0) that legitimately builds the seeded
    memory: push every seeded element in depth order, and pop each one
    seeded as deleted right after its push, while it is still on top."""
    events: list[Event] = []
    op_id = 0

    def op(name: OpName, inv_payload: Payload, res_payload: Payload) -> None:
        nonlocal op_id
        op_id += 1
        events.append(Event(0, op_id, EventKind.INVOCATION, name, inv_payload))
        events.append(Event(0, op_id, EventKind.RESPONSE, name, res_payload))

    for element, elim in scenario.initial_memory:
        op(OpName.PUSH, element, True)
        if elim:
            op(OpName.POP, None, element)
    return events


# ---------------------------------------------------------------------------
# Scheduled replay
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
    carries the run on; each other one replays its prefix from the root."""
    events: list[Event] = prologue_events(scenario)
    run = Run(scenario)
    branches: list[tuple[tuple[int, ...], int, int]] = []  # (prefix, events mark, thread)
    while True:
        enabled = run.enabled()
        if enabled:
            if len(run.schedule) >= max_steps:
                raise ExplorationTruncated(
                    f"run exceeded {max_steps} slots at schedule {tuple(run.schedule)}"
                )
            if len(enabled) > 1:
                prefix = tuple(run.schedule)
                branches.extend((prefix, len(events), i) for i in reversed(enabled[1:]))
            run.take(enabled[0], events)
            continue
        yield ExploredRun(tuple(run.schedule), History(tuple(events)))
        if not branches:
            return
        prefix, mark, thread = branches.pop()
        del events[mark:]
        run = Run(scenario, prefix)
        run.take(thread, events)


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


class FamilySweep(NamedTuple):
    """What sweep found; mixes and rejected are in exploration order."""

    mixes: tuple[tuple[tuple[tuple[PlannedOp, ...], ...], int], ...]  # (programs, runs)
    accepted: int  # set-linearizable runs
    shared: int  # runs in which two pops return one element
    shared_lin_rejected: int  # of those, the runs plain linearizability rejects
    rejected: tuple[tuple[tuple[int, ...], str], ...]  # (schedule, refutation), set-lin

    @property
    def runs(self) -> int:
        return sum(runs for _, runs in self.mixes)


def sweep(scenarios: Iterable[Scenario]) -> FamilySweep:
    """Explore every interleaving of each scenario and judge each run:
    set-linearizable, with the checker capped at the scenario's operation
    count, the prologue's included (every run completes them all), and,
    when two pops return the same element, re-checked for plain
    linearizability.  The verdicts read only a run's invocations and
    responses, so each distinct sequence of them is judged once; every run
    is still explored, checked slot by slot and counted."""
    verdicts: dict = {}  # INV/RES events -> (set-lin verdict, shares a return, lin rejects)
    mixes = []
    accepted = shared = shared_lin_rejected = 0
    rejected = []
    for scenario in scenarios:
        max_ops = len(prologue_events(scenario)) // 2 + sum(map(len, scenario.programs))
        runs = 0
        for run in explore(scenario):
            runs += 1
            key = tuple(e for e in run.history.events if e.kind is not EventKind.STEP)
            if key not in verdicts:
                shares = history_shares_return(run.history)
                verdicts[key] = (
                    check_set_linearizable(run.history, max_ops=max_ops),
                    shares,
                    shares and not check_linearizable(run.history, max_ops=max_ops).accepted,
                )
            verdict, shares, lin_rejected = verdicts[key]
            if verdict.accepted:
                accepted += 1
            else:
                rejected.append((run.schedule, verdict.refutation))
            shared += shares
            shared_lin_rejected += lin_rejected
        mixes.append((scenario.programs, runs))
    return FamilySweep(tuple(mixes), accepted, shared, shared_lin_rejected, tuple(rejected))


def sweep_family(threads: int, ops_per_thread: int) -> FamilySweep:
    """sweep over every push/pop mix of the family."""
    mixes = all_program_mixes(threads, ops_per_thread)
    return sweep(Scenario(programs=programs) for programs in mixes)


def reachable_configs(scenario: Scenario) -> Iterator[tuple[int, ...]]:
    """For each distinct Run.key() any schedule can reach, the schedule of
    the first run to reach it.  Runs always bottom out: flags only ever get
    set, nodes are only ever added, and a retry needs somebody else's
    successful swing, of which there are finitely many."""
    seen: set = set()

    def walk(run: Run) -> Iterator[tuple[int, ...]]:
        key = run.key()
        if key in seen:
            return
        seen.add(key)
        schedule = tuple(run.schedule)
        yield schedule
        for branch, thread in enumerate(run.enabled()):
            child = Run(scenario, schedule) if branch else run
            child.take(thread)
            yield from walk(child)

    yield from walk(Run(scenario))


# ---------------------------------------------------------------------------
# Stall probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    steps_used: tuple[tuple[int, int], ...]  # (thread, slots its op took)
    failures: tuple[int, ...]  # 0-based threads whose op missed the budget

    @property
    def all_completed(self) -> bool:
        return not self.failures


def progress_probe(
    scenario: Scenario, schedule: Sequence[int], stalled: int, budget: int
) -> ProbeReport:
    """Freeze one thread wherever the schedule leaves it and let every
    other thread run round robin.  Each other thread must finish its
    current operation (or its next, if idle) within the given number of
    its own slots; no steps of the frozen thread are ever taken."""
    run = Run(scenario, schedule)
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
    comment; blank lines are ignored.  Element ids are minted
    deterministically: seeded elements first (deepest first), then pushed
    values in line order."""
    initial: Optional[list[tuple[int, bool]]] = None
    ops: list[tuple[int, int, Optional[int]]] = []  # (lineno, thread, value|None)
    schedule: Optional[tuple[int, ...]] = None
    expect_returns = None
    expect_logical = None
    expect_memory = None
    seen_clauses: set[str] = set()

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
            if clause in seen_clauses:
                raise FixtureFormatError(lineno, f"EXPECT {clause} given twice")
            seen_clauses.add(clause)
            if clause == "RETURNS":
                expect_returns = tuple(_parse_expectation(tok, lineno) for tok in fields[2:])
            elif clause == "LOGICAL":
                expect_logical = tuple(
                    _parse_int(tok, lineno, "value") for tok in fields[2:]
                )
            elif clause == "MEMORY":
                expect_memory = tuple(_parse_memory_pair(tok, lineno) for tok in fields[2:])
            else:
                raise FixtureFormatError(lineno, f"unknown EXPECT clause {clause!r}")
        else:
            raise FixtureFormatError(lineno, f"unknown keyword {keyword!r}")

    if initial is None:
        initial = []
    if not ops:
        raise FixtureFormatError(None, "fixture plans no operations")

    planned = {thread for _, thread, _ in ops}
    for lineno, thread, _ in ops:  # blame the first OP line above a missing thread
        if not planned.issuperset(range(1, thread)):
            raise FixtureFormatError(lineno, "threads must be numbered 1..n without gaps")
    thread_count = max(planned)

    next_id = 1
    memory = []
    for value, elim in initial:
        memory.append((Element(value, next_id), elim))
        next_id += 1
    op_id = sum(2 if elim else 1 for _, elim in memory)  # prologue ops come first
    programs: list[list[PlannedOp]] = [[] for _ in range(thread_count)]
    for _, thread, value in ops:
        op_id += 1
        if value is None:
            programs[thread - 1].append(PlannedOp(op_id, OpName.POP))
        else:
            programs[thread - 1].append(PlannedOp(op_id, OpName.PUSH, Element(value, next_id)))
            next_id += 1

    return Scenario(
        initial_memory=tuple(memory),
        programs=tuple(tuple(p) for p in programs),
        schedule=schedule,
        expect_returns=expect_returns,
        expect_logical=expect_logical,
        expect_memory=expect_memory,
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
