"""Slot semantics, fixture parsing, bundled replays, exhaustive
exploration, the sweep, and the stall probe."""

from __future__ import annotations

import math

import pytest

import multistack.simulator as simulator
from multistack.checker import CheckOutcome, check_linearizable, check_set_linearizable
from multistack.elements import EMPTY, Element
from multistack.history import EventKind, OpName, dumps
from multistack.simulator import (
    ExplorationTruncated,
    FixtureFormatError,
    PlannedOp,
    Run,
    Scenario,
    ScheduleError,
    SimulationInvariantError,
    all_program_mixes,
    explore,
    load_bundled_fixture,
    parse_fixture,
    probe_budget,
    progress_probe,
    prologue_events,
    reachable_configs,
    replay_scenario,
    sweep,
    sweep_family,
)
from multistack.spec_machine import ClassKind
from support import seq_column


def pop_only_scenario(threads: int, pops_each: int, memory=()) -> Scenario:
    programs = []
    op_id = sum(2 if elim else 1 for _, elim in memory)
    for _ in range(threads):
        program = []
        for _ in range(pops_each):
            op_id += 1
            program.append(PlannedOp(op_id, OpName.POP))
        programs.append(tuple(program))
    return Scenario(initial_memory=tuple(memory), programs=tuple(programs))


def run_schedule(scenario: Scenario, entries):
    run = Run(scenario)
    events = []
    for entry in entries:
        run.take(entry - 1, events)
    return run, events


def links(run: Run):
    """Every node the run made, in the order made, as (element, element its
    next link points at, deletion flag)."""
    return [(n.element, None if n.next is None else n.next.element, n.elim) for n in run.nodes]


def shapes(events):
    return [(e.kind, e.payload) for e in events]


# ---------------------------------------------------------------------------
# Planned operations and run keys
# ---------------------------------------------------------------------------


def test_planned_op_validation():
    with pytest.raises(ValueError):
        PlannedOp(1, OpName.PUSH)
    with pytest.raises(ValueError):
        PlannedOp(1, OpName.POP, Element(1, 1))


def test_initial_config_chains_seeded_memory():
    scenario = pop_only_scenario(
        1, 1, memory=((Element(17, 1), False), (Element(11, 2), True), (Element(7, 3), False))
    )
    run = Run(scenario)
    _, top, _ = run.key()
    assert top == Element(7, 3)
    assert links(run) == [
        (Element(17, 1), None, False),
        (Element(11, 2), Element(17, 1), True),
        (Element(7, 3), Element(11, 2), False),
    ]
    assert run.stack.memory_snapshot() == [
        (Element(17, 1), False),
        (Element(11, 2), True),
        (Element(7, 3), False),
    ]
    assert run.stack.logical_state() == (Element(17, 1), Element(7, 3))


def test_empty_initial_memory_has_no_top():
    run = Run(pop_only_scenario(1, 1))
    assert run.key()[:2] == (frozenset(), None) and run.nodes == []


# ---------------------------------------------------------------------------
# Slot semantics
# ---------------------------------------------------------------------------


def test_pop_on_empty_is_one_slot():
    run = Run(pop_only_scenario(2, 1))
    events = []
    run.take(0, events)
    run.take(1, events)
    assert shapes(events[4:]) == [
        (EventKind.INVOCATION, None),
        (EventKind.STEP, 16),
        (EventKind.STEP, 17),
        (EventKind.RESPONSE, EMPTY),
    ]
    assert seq_column(events) == list(range(8))
    assert [e.process for e in events] == [1] * 4 + [2] * 4
    assert run.key()[2] == ((None, 1, ()), (None, 1, ()))
    assert not run.enabled()


def test_uncontended_pop_takes_four_slots():
    scenario = pop_only_scenario(1, 1, memory=((Element(13, 1), False),))
    run, events = run_schedule(scenario, [1, 1, 1, 1])
    assert shapes(events) == [
        (EventKind.INVOCATION, None),
        (EventKind.STEP, 16),
        (EventKind.STEP, 17),
        (EventKind.STEP, 20),
        (EventKind.STEP, 21),
        (EventKind.STEP, 22),
        (EventKind.RESPONSE, Element(13, 1)),
    ]
    assert run.key()[1] is None
    assert links(run) == [(Element(13, 1), None, True)]


def test_uncontended_push_takes_three_slots():
    element = Element(9, 1)
    scenario = Scenario(programs=((PlannedOp(1, OpName.PUSH, element),),))
    # Paused before its swing, the thread holds its node and the top it read.
    paused, _ = run_schedule(scenario, [1, 1])
    assert paused.key()[2] == ((6, 0, (("node", element), ("t", None))),)
    run, events = run_schedule(scenario, [1, 1, 1])
    assert shapes(events) == [
        (EventKind.INVOCATION, element),
        (EventKind.STEP, 3),
        (EventKind.STEP, 4),
        (EventKind.STEP, 6),
        (EventKind.RESPONSE, True),
    ]
    assert run.stack.memory_snapshot() == [(element, False)]


def test_push_over_deleted_top_helps_first():
    element = Element(9, 2)
    scenario = Scenario(
        initial_memory=((Element(5, 1), True),),
        programs=((PlannedOp(3, OpName.PUSH, element),),),
    )
    run, events = run_schedule(scenario, [1] * 6)
    lines = [e.payload for e in events if e.kind is EventKind.STEP]
    assert lines == [3, 4, 10, 3, 4, 6]
    # The helped-past node is unreachable; only the new element remains.
    assert run.stack.memory_snapshot() == [(element, False)]


def test_pop_over_deleted_top_helps_then_sees_empty():
    scenario = pop_only_scenario(1, 1, memory=((Element(5, 1), True),))
    run, events = run_schedule(scenario, [1] * 4)
    lines = [e.payload for e in events if e.kind is EventKind.STEP]
    assert lines == [16, 17, 20, 25, 16, 17]
    assert events[-1].payload is EMPTY
    assert run.key()[1] is None


def test_losing_push_retries_with_the_same_node():
    a, b = Element(1, 1), Element(2, 2)
    scenario = Scenario(
        programs=(
            (PlannedOp(1, OpName.PUSH, a),),
            (PlannedOp(2, OpName.PUSH, b),),
        )
    )
    # Both read top, thread 1 swings first; thread 2's swing fails and it
    # goes around again.
    run, events = run_schedule(scenario, [1, 2, 1, 2, 1, 2, 2, 2, 2])
    t2_lines = [
        e.payload for e in events if e.process == 2 and e.kind is EventKind.STEP
    ]
    assert t2_lines == [3, 4, 6, 3, 4, 6]
    assert run.stack.memory_snapshot() == [(a, False), (b, False)]
    assert len(run.nodes) == 2  # retry reuses the allocated node


def test_schedule_errors():
    scenario = pop_only_scenario(1, 1)
    run = Run(scenario)
    with pytest.raises(ScheduleError):
        run.take(3)
    run.take(0)
    with pytest.raises(ScheduleError):
        run.take(0)
    assert 0 not in run.enabled()


def test_replayed_prefixes_reject_bad_entries_like_new_slots():
    scenario = pop_only_scenario(1, 1)
    for prefix in ((0,), (2,), (1, 1)):
        with pytest.raises(ScheduleError):
            Run(scenario, prefix)


# ---------------------------------------------------------------------------
# Per-step invariants
# ---------------------------------------------------------------------------


def test_deletion_flag_regression_is_detected():
    scenario = pop_only_scenario(1, 1, memory=((Element(5, 1), True), (Element(6, 2), False)))
    run = Run(scenario)
    run.take(0)
    run.nodes[0].elim = False  # corrupt memory between two slots
    with pytest.raises(SimulationInvariantError, match="elim flag of v:5#1 was reset"):
        run.take(0)


def test_chain_cycle_is_detected():
    scenario = pop_only_scenario(1, 1, memory=((Element(1, 1), False), (Element(2, 2), False)))
    run = Run(scenario)
    run.take(0)
    run.nodes[0].next = run.nodes[1]  # corrupt memory between two slots
    with pytest.raises(SimulationInvariantError, match="cycle"):
        run.take(0)


# ---------------------------------------------------------------------------
# Provenance prologue
# ---------------------------------------------------------------------------


def test_prologue_builds_the_seeded_memory_sequentially():
    scenario = pop_only_scenario(
        1, 1, memory=((Element(17, 1), False), (Element(11, 2), True), (Element(7, 3), False))
    )
    events = prologue_events(scenario)
    assert all(e.process == 0 for e in events)
    assert seq_column(events) == list(range(len(events)))
    ops = [
        (e.op_id, e.name, e.payload)
        for e in events
        if e.kind is EventKind.INVOCATION
    ]
    assert ops == [
        (1, OpName.PUSH, Element(17, 1)),
        (2, OpName.PUSH, Element(11, 2)),
        (3, OpName.POP, None),
        (4, OpName.PUSH, Element(7, 3)),
    ]
    responses = [e.payload for e in events if e.kind is EventKind.RESPONSE]
    assert responses == [True, True, Element(11, 2), True]


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["shared_pop", "helped_pop", "push_race", "push_helps"]
)
def test_bundled_fixtures_meet_their_expectations(name):
    from multistack.simulator import verify_expectations

    scenario = load_bundled_fixture(name)
    assert verify_expectations(scenario, replay_scenario(scenario)) == []


def test_shared_pop_replay_pinned():
    scenario = load_bundled_fixture("shared_pop")
    result = replay_scenario(scenario)
    e13 = Element(13, 4)
    assert result.returns == ((e13,), (e13,), (e13,))
    assert result.logical == (Element(17, 1), Element(7, 3))
    # The popped node is swung past; the seeded deleted node is still
    # physically reachable because nobody traversed over it.
    assert result.memory == (
        (Element(17, 1), False),
        (Element(11, 2), True),
        (Element(7, 3), False),
    )


def test_helped_pop_replay_pinned():
    result = replay_scenario(load_bundled_fixture("helped_pop"))
    flat = [value for per_thread in result.returns for value in per_thread]
    assert [v.value for v in flat] == [13, 13, 11]
    assert [e.value for e in result.logical] == [17]


def test_replay_is_deterministic():
    scenario = load_bundled_fixture("helped_pop")
    first = replay_scenario(scenario)
    second = replay_scenario(scenario)
    assert dumps(first.history) == dumps(second.history)
    assert Run(scenario, scenario.schedule).key() == Run(scenario, scenario.schedule).key()


def test_replayed_history_is_self_contained_for_the_checker():
    result = replay_scenario(load_bundled_fixture("shared_pop"))
    verdict = check_set_linearizable(result.history)
    assert verdict.accepted
    last = verdict.witness[-1]
    assert last.kind is ClassKind.POP_GROUP
    assert last.op_ids == (6, 7, 8) and last.element == Element(13, 4)
    assert not check_linearizable(result.history).accepted


def test_replay_without_schedule_is_rejected():
    with pytest.raises(ValueError):
        replay_scenario(pop_only_scenario(1, 1))


def test_replay_schedule_entries_are_validated():
    scenario = Scenario(
        programs=((PlannedOp(1, OpName.POP),),), schedule=(2,)
    )
    with pytest.raises(ScheduleError):
        replay_scenario(scenario)


# ---------------------------------------------------------------------------
# Fixture parsing
# ---------------------------------------------------------------------------


def test_parse_fixture_mints_ids_deterministically():
    scenario = parse_fixture(
        """
        # behavior, not provenance
        INIT (17,F) (11,T)
        OP 1 PUSH 5
        OP 2 POP
        SCHED 1 2 1
        EXPECT RETURNS true 11
        EXPECT LOGICAL 17 5
        EXPECT MEMORY (17,F) (5,F)
        """
    )
    assert scenario.initial_memory == (
        (Element(17, 1), False),
        (Element(11, 2), True),
    )
    # Seeded memory costs three prologue ops (one push is paired with a
    # pop), so planned ops start at id 4; pushed elements continue the
    # element numbering.
    assert scenario.programs == (
        (PlannedOp(4, OpName.PUSH, Element(5, 3)),),
        (PlannedOp(5, OpName.POP),),
    )
    assert scenario.schedule == (1, 2, 1)
    assert scenario.expect_returns == (True, 11)
    assert scenario.expect_logical == (17, 5)
    assert scenario.expect_memory == ((17, False), (5, False))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("INIT (1,F)\nINIT (2,F)\nOP 1 POP", 2),
        ("OP 1\nSCHED 1", 1),
        ("OP 0 POP", 1),
        ("OP 1 PUSH", 1),
        ("OP 1 PUSH 3 4", 1),
        ("OP 1 POP 3", 1),
        ("OP 1 SWAP 3", 1),
        ("HELLO", 1),
        ("OP 1 POP\nSCHED 1\nSCHED 1", 3),
        ("OP 1 POP\nEXPECT", 2),
        ("OP 1 POP\nEXPECT COLOUR 1", 2),
        ("OP 1 PUSH 5\nSCHED 1 1 1\nEXPECT RETURNS 9\nEXPECT RETURNS true", 4),
        ("OP 1 POP\nEXPECT LOGICAL\n# again\nEXPECT LOGICAL 3", 4),
        ("OP 1 POP\nEXPECT MEMORY (1,F)\nEXPECT RETURNS empty\nEXPECT MEMORY", 4),
        ("INIT (1,X)\nOP 1 POP", 1),
        ("INIT 1,F\nOP 1 POP", 1),
        ("OP 1 POP\nSCHED x", 2),
        ("OP 2 POP", 1),
        ("OP 1 POP\n# no thread 2\nOP 1 PUSH 4\nOP 3 POP\nOP 4 POP", 4),
        ("INIT (1,F)", None),
        ("# comments only\n\n", None),
    ],
)
def test_parse_fixture_errors_carry_line_numbers(text, lineno):
    # A fixture with no OP line has no line at fault; a gap in the thread
    # numbers is blamed on the first OP line naming a thread above it.
    with pytest.raises(FixtureFormatError) as info:
        parse_fixture(text)
    assert info.value.lineno == lineno


# ---------------------------------------------------------------------------
# Exhaustive exploration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pops_each, expected", [(2, 6), (3, 20), (4, 70)])
def test_explore_counts_two_thread_interleavings(pops_each, expected):
    # Pops on an empty stack take exactly one slot, so the number of
    # schedules is the central binomial coefficient.
    scenario = pop_only_scenario(2, pops_each)
    runs = list(explore(scenario))
    assert len(runs) == expected
    assert expected == math.comb(2 * pops_each, pops_each)
    assert len({run.schedule for run in runs}) == expected
    for run in runs:
        assert len(run.schedule) == 2 * pops_each
        responses = [
            e for e in run.history.events if e.kind is EventKind.RESPONSE
        ]
        assert all(e.payload is EMPTY for e in responses)


def test_explore_counts_three_thread_interleavings():
    runs = list(explore(pop_only_scenario(3, 2)))
    assert len(runs) == math.factorial(6) // (2 * 2 * 2)  # 90


def test_explore_order_is_deterministic():
    runs = list(explore(pop_only_scenario(2, 1)))
    assert [run.schedule for run in runs] == [(1, 2), (2, 1)]


def test_explore_finds_the_shared_return():
    scenario = pop_only_scenario(2, 1, memory=((Element(13, 1), False),))
    shared = 0
    exclusive = 0
    for run in explore(scenario):
        returned = [
            e.payload
            for e in run.history.events
            if e.kind is EventKind.RESPONSE and e.process > 0
        ]
        assert len(returned) == 2
        both_13 = all(
            isinstance(v, Element) and v.value == 13 for v in returned
        )
        if both_13:
            shared += 1
        elif any(isinstance(v, Element) for v in returned):
            exclusive += 1
        verdict = check_set_linearizable(run.history)
        assert verdict.accepted, verdict.refutation
    assert shared > 0 and exclusive > 0


def test_explore_truncates_runaway_runs():
    scenario = pop_only_scenario(1, 3)
    with pytest.raises(ExplorationTruncated):
        list(explore(scenario, max_steps=2))


def test_reachable_configs_match_schedule_prefixes():
    scenarios = [
        pop_only_scenario(2, 1, memory=((Element(13, 1), False),)),
        Scenario(
            programs=(
                (PlannedOp(1, OpName.PUSH, Element(1, 1)),),
                (PlannedOp(2, OpName.PUSH, Element(2, 2)),),
            )
        ),
    ]
    for scenario in scenarios:
        via_prefixes = set()
        for explored in explore(scenario):
            run = Run(scenario)
            via_prefixes.add(run.key())
            for entry in explored.schedule:
                run.take(entry - 1)
                via_prefixes.add(run.key())
        schedules = list(reachable_configs(scenario))
        via_walk = {Run(scenario, schedule).key() for schedule in schedules}
        assert via_walk == via_prefixes
        assert len(via_walk) == len(schedules)  # each configuration once


def test_reachable_configs_counts_a_straight_line_run():
    scenario = Scenario(programs=((PlannedOp(1, OpName.PUSH, Element(1, 1)),),))
    assert len(list(reachable_configs(scenario))) == 4  # idle, 3, 4, done


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def inv_res(history):
    return tuple(e for e in history.events if e.kind is not EventKind.STEP)


def test_sweep_judges_each_distinct_history_once(monkeypatch):
    judged = []

    def counting(history, **kwargs):
        judged.append(inv_res(history))
        return check_set_linearizable(history, **kwargs)

    monkeypatch.setattr(simulator, "check_set_linearizable", counting)
    result = sweep_family(2, 1)
    distinct = {
        inv_res(run.history)
        for programs in all_program_mixes(2, 1)
        for run in explore(Scenario(programs=programs))
    }
    assert (result.runs, len(judged), len(distinct)) == (30, 14, 14)
    assert set(judged) == distinct
    assert result.accepted == 30


def test_sweep_caps_the_checker_at_the_scenario_operation_count():
    # 16 seeded pushes and one planned pop: 17 operations, one over the
    # checker's default cap, so a cap of 16 or of the planned op alone
    # would leave the run undecided.
    memory = tuple((Element(value, value), False) for value in range(1, 17))
    scenario = pop_only_scenario(1, 1, memory=memory)
    result = sweep([scenario])
    assert (result.runs, result.accepted, result.rejected) == (1, 1, ())
    (run,) = explore(scenario)
    assert check_set_linearizable(run.history).outcome is CheckOutcome.UNDECIDED


# ---------------------------------------------------------------------------
# Stall probe
# ---------------------------------------------------------------------------


def test_probe_completes_around_a_thread_frozen_before_its_write():
    scenario = pop_only_scenario(2, 1, memory=((Element(13, 1), False),))
    schedule = (1, 1)  # thread 1 parked before line 21
    budget = probe_budget(Run(scenario, schedule))
    report = progress_probe(scenario, schedule, stalled=0, budget=budget)
    assert report.all_completed
    assert report.steps_used == ((1, 4),)


def test_probe_completes_around_a_thread_frozen_after_its_write():
    scenario = pop_only_scenario(2, 1, memory=((Element(13, 1), False),))
    schedule = (1, 1, 1)  # flag set, swing not taken
    budget = probe_budget(Run(scenario, schedule))
    report = progress_probe(scenario, schedule, stalled=0, budget=budget)
    assert report.all_completed
    # The other pop finds the flag set, helps, and reports empty.
    assert report.steps_used == ((1, 4),)


def test_probe_reports_a_missed_budget():
    scenario = pop_only_scenario(2, 1, memory=((Element(13, 1), False),))
    report = progress_probe(scenario, (), stalled=0, budget=0)
    assert report.failures == (1,)
    assert not report.all_completed


def test_probe_ignores_finished_threads():
    scenario = pop_only_scenario(2, 1)
    report = progress_probe(scenario, (2,), stalled=0, budget=5)  # thread 2 already done
    assert report.steps_used == () and report.all_completed


def test_probe_budget_counts_every_reachable_node():
    scenario = pop_only_scenario(
        1, 1, memory=((Element(1, 1), False), (Element(2, 2), True))
    )
    assert probe_budget(Run(scenario)) == 6 * 3  # deleted nodes cost help rounds too
    assert probe_budget(Run(pop_only_scenario(1, 1))) == 6
