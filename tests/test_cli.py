"""End-to-end command tests, driven in process through main(argv)."""

from __future__ import annotations

import csv
import hashlib
import io
import sys
import threading
from collections import Counter

import pytest

import multistack.harness as harness
import multistack.simulator as simulator
from multistack.baseline_stack import TreiberStack
from multistack.cli import BUNDLED_FIXTURES, main
from multistack.elements import EMPTY, Element
from multistack.harness import (
    IMPLS,
    RunConfig,
    StressResult,
    bench_once,
    conservation_errors,
    make_stack,
    repeated_ids,
    run_stress,
)
from multistack.history import (
    EventKind,
    OpName,
    dumps,
    history_shares_return,
    operations,
    read_history,
    write_history,
)
from multistack.relaxed_stack import DONE, RelaxedStack, pop_step
from multistack.simulator import all_program_mixes, load_bundled_fixture, replay_scenario
from support import build_history, sequential_history


def write_shared_pop_history(path) -> None:
    script = []
    for op_id, (value, pid) in enumerate([(17, 1), (11, 2), (7, 3), (13, 4)], start=1):
        script.append(("inv", 1, op_id, "push", Element(value, pid)))
        script.append(("res", 1, op_id, True))
    script += [
        ("inv", 1, 5, "pop"),
        ("inv", 2, 6, "pop"),
        ("inv", 3, 7, "pop"),
        ("res", 1, 5, Element(13, 4)),
        ("res", 2, 6, Element(13, 4)),
        ("res", 3, 7, Element(13, 4)),
    ]
    write_history(build_history(script), path)


# ---------------------------------------------------------------------------
# Harness pieces
# ---------------------------------------------------------------------------


def test_make_stack():
    assert isinstance(make_stack("relaxed", checked=False), RelaxedStack)
    assert isinstance(make_stack("baseline", checked=False), TreiberStack)
    with pytest.raises(ValueError):
        make_stack("skiplist", checked=False)


def test_same_seed_draws_the_same_plans():
    config = RunConfig(threads=3, ops_per_thread=20, seed=42)
    runs = [run_stress(config), run_stress(config)]

    def plan(result: StressResult):
        return [
            [
                (name, value.value if name is OpName.PUSH else None)
                for name, value in ops
            ]
            for ops in result.outcomes
        ]

    assert plan(runs[0]) == plan(runs[1])
    assert plan(runs[0]) != plan(run_stress(RunConfig(threads=3, ops_per_thread=20, seed=43)))


def test_plans_push_a_value_or_pop():
    # Per op: random() < 0.5 pushes, then randrange(1, 101) draws its value.
    assert RunConfig(threads=2, ops_per_thread=4, seed=0).plans() == [
        [None, None, 34, None],
        [98, 16, 58, 49],
    ]


def test_bench_runs_the_stress_plans(monkeypatch):
    config = RunConfig(threads=3, ops_per_thread=30, seed=9)

    class Spy(RelaxedStack):
        """Logs each thread's pushed values and pops, in order."""

        def __init__(self, checked):
            super().__init__(checked)
            self.log = {}

        def push(self, element, trace=None):
            self.log.setdefault(threading.current_thread(), []).append(element.value)
            return super().push(element, trace)

        def pop(self, trace=None):
            self.log.setdefault(threading.current_thread(), []).append(None)
            return super().pop(trace)

    stacks = []

    def make_spy(impl, checked):
        stacks.append(Spy(checked))
        return stacks[-1]

    monkeypatch.setattr(harness, "make_stack", make_spy)
    run_stress(config)
    bench_once(config)
    stress_log, bench_log = (sorted(stack.log.values(), key=repr) for stack in stacks)
    assert stress_log == bench_log == sorted(config.plans(), key=repr)


class Leaky(TreiberStack):
    def pop(self, trace=None):  # returns the top but leaves it there
        top = self._top.value
        return EMPTY if top is None else top.element


def test_bench_raises_when_a_run_fails_conservation(monkeypatch):
    monkeypatch.setattr(harness, "make_stack", lambda impl, checked: Leaky())
    with pytest.raises(AssertionError, match="both popped and still on the stack"):
        bench_once(RunConfig(impl="baseline", threads=1, ops_per_thread=20, seed=1))


def test_a_failing_stack_operation_is_reraised_after_every_worker_ends(monkeypatch):
    class Broken(TreiberStack):
        def push(self, element, trace=None):
            raise RuntimeError("boom")

    monkeypatch.setattr(harness, "make_stack", lambda impl, checked: Broken())
    with pytest.raises(RuntimeError, match="boom"):
        run_stress(RunConfig(impl="baseline", threads=2, ops_per_thread=10, seed=1))
    assert not [t for t in threading.enumerate() if t.name.startswith("process-")]


def test_drive_shortens_the_switch_interval_only_for_two_or_more_threads():
    class Clocked(TreiberStack):
        """Logs the switch interval each operation runs under."""

        def __init__(self):
            super().__init__()
            self.intervals = set()

        def push(self, element, trace=None):
            self.intervals.add(sys.getswitchinterval())
            return super().push(element, trace)

        def pop(self, trace=None):
            self.intervals.add(sys.getswitchinterval())
            return super().pop(trace)

    callers = 0.002
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(callers)
    try:
        seen = {}
        for threads in (1, 2):
            stack = Clocked()
            harness.drive(RunConfig("baseline", threads, 50, seed=4), stack)
            seen[threads] = stack.intervals
            assert sys.getswitchinterval() == callers
    finally:
        sys.setswitchinterval(old_interval)
    (one,), (two,) = seen[1], seen[2]  # each run under one interval throughout
    assert one == callers
    assert two == pytest.approx(harness.SWITCH_INTERVAL)  # stored in whole microseconds


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_stress_step_counts_are_the_trace_calls(monkeypatch, seed):
    class Spy(RelaxedStack):
        """Counts every trace call per line, across threads, under its own lock."""

        def __init__(self, checked):
            super().__init__(checked=checked)
            self.lock = threading.Lock()
            self.calls = Counter()

        def spied(self, trace):
            def step(line):
                with self.lock:
                    self.calls[line] += 1
                trace(line)

            return step

        def push(self, element, trace=None):
            return super().push(element, self.spied(trace))

        def pop(self, trace=None):
            return super().pop(self.spied(trace))

    stacks = []

    def make_spy(impl, checked):
        stacks.append(Spy(checked))
        return stacks[-1]

    monkeypatch.setattr(harness, "make_stack", make_spy)
    result = run_stress(RunConfig(threads=4, ops_per_thread=200, seed=seed))
    calls = stacks[0].calls
    assert result.step_counts == calls
    attempts = calls[3] + calls[16]
    assert result.retries == attempts - result.pushes - result.pops
    assert result.helps == calls[10] + calls[25]


def assert_counters_match_the_history(result):
    events = result.history.events
    invoked = Counter(e.name for e in events if e.kind is EventKind.INVOCATION)
    popped = [e.payload for e in events if e.kind is EventKind.RESPONSE and e.name is OpName.POP]
    assert (result.pushes, result.pops) == (invoked[OpName.PUSH], invoked[OpName.POP])
    assert result.empty_pops == popped.count(EMPTY)
    shared = sorted({e.push_id for e in popped if e != EMPTY and popped.count(e) > 1})
    assert result.shared_return_ids == shared


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("seed", [0, 3, 8])
def test_stress_counters_agree_with_the_recorded_history(impl, seed):
    result = run_stress(RunConfig(impl, threads=3, ops_per_thread=60, seed=seed))
    assert_counters_match_the_history(result)
    assert result.conservation == []
    if impl == "baseline":  # traces no line
        assert (result.retries, result.helps) == (0, 0)


def test_stress_counts_the_ids_a_leaky_stack_returns_twice(monkeypatch):
    monkeypatch.setattr(harness, "make_stack", lambda impl, checked: Leaky())
    result = run_stress(RunConfig("baseline", threads=1, ops_per_thread=20, seed=1))
    assert_counters_match_the_history(result)
    assert result.shared_return_ids == [2, 11]


def test_repeated_ids_are_the_elements_held_more_than_once():
    once, twice, thrice = Element(4, 4), Element(1, 1), Element(2, 3)
    values = [twice, EMPTY, once, twice, thrice, True, thrice, thrice]
    assert repeated_ids(values) == [1, 3]
    assert repeated_ids([Element(1, 1), EMPTY, EMPTY]) == []


def test_stress_records_a_complete_history():
    config = RunConfig(threads=2, ops_per_thread=15, seed=3)
    result = run_stress(config)
    records = operations(result.history)
    assert len(records) == config.total_ops
    assert all(r.responded_at is not None for r in records)
    # Steps are tallied for the retry/help counters, not stored.
    assert not any(e.kind is EventKind.STEP for e in result.history.events)
    assert result.step_counts
    assert result.pushes + result.pops == config.total_ops
    assert conservation_errors(result.stack, result.outcomes) == []


def test_conservation_catches_a_pop_from_nowhere():
    errors = conservation_errors(RelaxedStack(), [[(OpName.POP, Element(5, 77))]])
    assert any("never pushed" in e for e in errors)


def test_conservation_catches_a_lost_element():
    # The stack is empty: the push never landed.
    errors = conservation_errors(RelaxedStack(), [[(OpName.PUSH, Element(5, 1))]])
    assert any("neither popped nor on the stack" in e for e in errors)


def test_conservation_catches_a_popped_element_still_present():
    stack = TreiberStack()
    element = stack.make_element(5)
    stack.push(element)
    errors = conservation_errors(stack, [[(OpName.PUSH, element), (OpName.POP, element)]])
    assert any("both popped and still on the stack" in e for e in errors)


def test_conservation_rejects_baseline_duplicates():
    stack = TreiberStack()
    element = stack.make_element(5)
    stack.push(element)
    stack.pop()
    outcomes = [[(OpName.PUSH, element), (OpName.POP, element), (OpName.POP, element)]]
    assert conservation_errors(stack, outcomes) == [
        f"baseline returned ids more than once: [{element.push_id}]"
    ]
    # The same returns from a relaxed stack are a shared pop, not an error.
    assert conservation_errors(RelaxedStack(), outcomes) == []


def test_conservation_catches_a_push_id_handed_out_twice():
    element = Element(5, 1)
    outcomes = [[(OpName.PUSH, element)], [(OpName.PUSH, element)]]
    assert "a push id was handed out twice" in conservation_errors(RelaxedStack(), outcomes)


def test_conservation_reports_a_cycle_in_the_chain():
    result = run_stress(RunConfig(threads=1, ops_per_thread=6, seed=3))
    top = deepest = result.stack._top.value
    while deepest.next is not None:
        deepest = deepest.next
    deepest.next = top
    errors = conservation_errors(result.stack, result.outcomes)
    assert any("reachable chain has a cycle" in e for e in errors), errors


def test_program_mixes_enumerate_and_number_thread_major():
    mixes = all_program_mixes(2, 1)
    assert len(mixes) == 4
    shapes = {
        tuple(tuple(op.name for op in program) for program in mix) for mix in mixes
    }
    assert ((OpName.PUSH,), (OpName.POP,)) in shapes
    both_push = next(
        m
        for m in mixes
        if all(op.name is OpName.PUSH for program in m for op in program)
    )
    assert both_push[0][0].op_id == 1 and both_push[0][0].element == Element(1, 1)
    assert both_push[1][0].op_id == 2 and both_push[1][0].element == Element(2, 2)
    assert len(all_program_mixes(2, 2)) == 16


def test_history_shares_return():
    assert not history_shares_return(
        sequential_history(("push", 1, Element(5, 1)), ("pop", 2, Element(5, 1)))
    )
    assert history_shares_return(
        sequential_history(
            ("push", 1, Element(5, 1)),
            ("pop", 2, Element(5, 1)),
            ("pop", 3, Element(5, 1)),
        )
    )
    # The repeat is the history's last response, after other returns.
    assert history_shares_return(
        sequential_history(
            ("push", 1, Element(5, 1)),
            ("push", 2, Element(6, 2)),
            ("pop", 3, Element(6, 2)),
            ("pop", 4, Element(5, 1)),
            ("pop", 5, EMPTY),
            ("pop", 6, Element(5, 1)),
        )
    )
    # EMPTY returned twice is no shared element.
    assert not history_shares_return(sequential_history(("pop", 1, EMPTY), ("pop", 2, EMPTY)))
    # A pending pop returns nothing, whatever its steps say.
    assert not history_shares_return(
        build_history(
            [
                ("inv", 1, 1, "push", Element(5, 1)),
                ("res", 1, 1, True),
                ("inv", 2, 2, "pop"),
                ("step", 2, 2, 17),
                ("inv", 1, 3, "pop"),
                ("res", 1, 3, Element(5, 1)),
            ]
        )
    )
    # Steps between the two responses of one element.
    shared = [
        ("inv", 1, 1, "push", Element(5, 1)),
        ("res", 1, 1, True),
        ("inv", 1, 2, "pop"),
        ("inv", 2, 3, "pop"),
        ("step", 1, 2, 17),
        ("res", 1, 2, Element(5, 1)),
        ("step", 2, 3, 17),
        ("step", 2, 3, 20),
        ("res", 2, 3, Element(5, 1)),
    ]
    assert history_shares_return(build_history(shared))
    assert not history_shares_return(build_history(shared[:-1]))


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------


def test_stress_command_writes_history_and_summary(tmp_path, capsys):
    out = tmp_path / "run.history"
    code = main(["stress", "-t", "2", "-n", "10", "--seed", "5", "-o", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "total_ops=20" in captured
    assert "CONSERVATION" not in captured
    history = read_history(out)
    assert len(operations(history)) == 20


def test_stress_baseline_reports_no_retries_or_helps(tmp_path, capsys):
    out = tmp_path / "run.history"
    argv = ["stress", "--impl", "baseline", "-t", "2", "-n", "50", "--seed", "3", "-o", str(out)]
    assert main(argv) == 0
    assert " retries=0 helps=0 " in capsys.readouterr().out


def test_stress_prints_each_conservation_violation_and_keeps_the_history(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(harness, "make_stack", lambda impl, checked: Leaky())
    out = tmp_path / "run.history"
    argv = ["stress", "--impl", "baseline", "-t", "1", "-n", "20", "--seed", "1", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "CONSERVATION VIOLATED: ids both popped and still on the stack: [2, 3, 6, 10, 11]",
        "CONSERVATION VIOLATED: baseline returned ids more than once: [2, 11]",
    ]
    assert len(operations(read_history(out))) == 20


def test_stress_reports_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "run.history"
    code = main(["stress", "-t", "1", "-n", "2", "-o", str(target)])
    assert code == 3
    assert "ERROR" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_accepts_and_writes_a_witness(tmp_path, capsys):
    path = tmp_path / "shared.history"
    write_shared_pop_history(path)
    code = main(["check", str(path)])
    assert code == 0
    assert "ACCEPTED" in capsys.readouterr().out
    witness = (tmp_path / "shared.history.witness").read_text(encoding="utf-8")
    assert witness.splitlines()[-1] == "CLASS 5: 5,6,7 -> v:13#4"


def test_check_lin_mode_rejects_the_same_history(tmp_path, capsys):
    path = tmp_path / "shared.history"
    write_shared_pop_history(path)
    code = main(["check", str(path), "--mode", "lin"])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "invocation, response, refutation",
    [
        ("PUSH v:1#1", "PUSH v:1#1", "push op 1 returned v:1#1 instead of true"),
        ("PUSH v:1#1", "PUSH empty", "push op 1 returned empty instead of true"),
        ("POP -", "POP true", "pop op 1 returned neither an element nor empty"),
    ],
)
def test_check_rejects_a_result_of_the_wrong_shape(
    tmp_path, capsys, invocation, response, refutation
):
    path = tmp_path / "shape.history"
    path.write_text(f"0 1 1 INV {invocation}\n1 1 1 RES {response}\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"REJECTED: {refutation}\n"


def test_check_prints_a_search_rejection_in_order_of_last_invocation(tmp_path, capsys):
    path = tmp_path / "lifo.history"
    write_history(
        sequential_history(
            ("push", 1, Element(17, 1)), ("push", 2, Element(11, 2)), ("pop", 3, Element(17, 1))
        ),
        path,
    )
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "REJECTED: no precedence-respecting order of the 3 classes replays as a stack "
        "(in order of last invocation, placed 2 of 3; then: pop[3]->v:17#1 but the top of "
        "(v:17#1, v:11#2) is v:11#2)\n"
    )


def test_check_undecided_over_the_cap(tmp_path, capsys):
    path = tmp_path / "big.history"
    write_history(
        sequential_history(*[("push", i, Element(1, i)) for i in range(1, 18)]),
        path,
    )
    code = main(["check", str(path)])
    assert code == 2
    assert "UNDECIDED" in capsys.readouterr().out


def test_check_malformed_file_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.history"
    path.write_text("0 1 1 INV PUSH v:5#1\nnot an event\n", encoding="utf-8")
    code = main(["check", str(path)])
    assert code == 3
    assert "line 2" in capsys.readouterr().out


def test_check_undecodable_file_is_malformed(tmp_path, capsys):
    path = tmp_path / "binary.history"
    path.write_bytes(b"0 1 1 INV POP -\n1 1 1 RES POP empty\xff\n")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("MALFORMED") and "line 2" in out


def test_check_missing_file(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.history")])
    assert code == 3
    assert "MALFORMED" in capsys.readouterr().out


def test_check_decides_a_2048_op_stress_run(tmp_path, capsys):
    # More classes than the interpreter's default recursion limit: the
    # search must not recurse once per placed class.
    path = tmp_path / "long.history"
    assert main(["stress", "-t", "2", "-n", "1024", "--seed", "11", "-o", str(path)]) == 0
    assert main(["check", str(path), "--max-ops", "2048"]) == 0
    assert "ACCEPTED" in capsys.readouterr().out
    witness = (tmp_path / "long.history.witness").read_text(encoding="utf-8")
    placed = [
        int(op)
        for line in witness.splitlines()
        for op in line.split(": ")[1].split(" -> ")[0].split(",")
    ]
    complete = [r.op_id for r in operations(read_history(path)) if r.responded_at is not None]
    assert len(complete) == 2048
    assert sorted(placed) == sorted(complete)


def test_check_custom_witness_path(tmp_path):
    path = tmp_path / "shared.history"
    write_shared_pop_history(path)
    witness = tmp_path / "w.txt"
    assert main(["check", str(path), "--witness", str(witness)]) == 0
    assert witness.exists()


def test_check_reports_an_unwritable_witness_path(tmp_path, capsys):
    path = tmp_path / "shared.history"
    write_shared_pop_history(path)
    witness = tmp_path / "missing-dir" / "w.txt"
    assert main(["check", str(path), "--witness", str(witness)]) == 3
    assert capsys.readouterr().out.startswith("ERROR: ")


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_bundled_fixture(tmp_path, capsys):
    out = tmp_path / "replayed.history"
    code = main(["replay", "shared_pop", "--assert", "-o", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "RETURNS 13 13 13" in captured
    assert "FINAL LOGICAL 17 7" in captured
    assert "PASS all expectations hold" in captured
    # The emitted file round-trips and carries its own provenance.
    history = read_history(out)
    assert main(["check", str(out)]) == 0


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_replay_stdout_is_the_history_text_then_the_final_state(name, capsys):
    result = replay_scenario(load_bundled_fixture(name))
    memory = "".join(f" ({e.value},{'T' if elim else 'F'})" for e, elim in result.memory)
    logical = "".join(f" {e.value}" for e in result.logical)
    returns = "".join(
        " true" if value is True else " empty" if value is EMPTY else f" {value.value}"
        for per_thread in result.returns
        for value in per_thread
    )
    assert main(["replay", name]) == 0
    assert capsys.readouterr().out == (
        f"{dumps(result.history)}FINAL MEMORY{memory}\n"
        f"FINAL LOGICAL{logical}\nRETURNS{returns}\n"
    )


def test_replay_reports_an_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "replayed.history"
    assert main(["replay", "shared_pop", "-o", str(target)]) == 3
    assert capsys.readouterr().out.splitlines()[-1].startswith("ERROR: ")


def test_replay_failure_lists_the_mismatches(tmp_path, capsys):
    fixture = tmp_path / "wrong.txt"
    fixture.write_text(
        "INIT (13,F)\nOP 1 POP\nSCHED 1 1 1 1\nEXPECT RETURNS empty\n",
        encoding="utf-8",
    )
    code = main(["replay", str(fixture), "--assert"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in captured and "expected empty" in captured


def test_replay_assert_lists_wrong_return_count_logical_state_and_memory(tmp_path, capsys):
    fixture = tmp_path / "wrong.txt"
    fixture.write_text(
        "INIT (17,F) (11,T) (7,F) (13,F)\nOP 1 POP\nOP 2 POP\nOP 3 POP\n"
        "SCHED 1 2 3 1 2 3 1 2 3 1 2 3\n"
        "EXPECT RETURNS 13\nEXPECT LOGICAL 17\nEXPECT MEMORY (17,F)\n",
        encoding="utf-8",
    )
    assert main(["replay", str(fixture), "--assert"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failures == [
        "FAIL expected 1 returns, run produced 3",
        "FAIL logical state: expected (17,), got (17, 7)",
        "FAIL memory: expected ((17, False),), got ((17, False), (11, True), (7, False))",
    ]


def test_replay_without_assert_ignores_expectations(tmp_path, capsys):
    fixture = tmp_path / "wrong.txt"
    fixture.write_text(
        "INIT (13,F)\nOP 1 POP\nSCHED 1 1 1 1\nEXPECT RETURNS empty\n",
        encoding="utf-8",
    )
    assert main(["replay", str(fixture)]) == 0
    assert "RETURNS 13" in capsys.readouterr().out


def test_replay_malformed_fixture(tmp_path, capsys):
    fixture = tmp_path / "broken.txt"
    fixture.write_text("OP 1 POP\nWAT\n", encoding="utf-8")
    assert main(["replay", str(fixture)]) == 3
    assert "line 2" in capsys.readouterr().out


def test_replay_fixture_without_operations(tmp_path, capsys):
    fixture = tmp_path / "empty.txt"
    fixture.write_text("# nothing planned yet\n\n", encoding="utf-8")
    assert main(["replay", str(fixture)]) == 3
    assert capsys.readouterr().out == "MALFORMED: fixture plans no operations\n"


def test_replay_undecodable_fixture_is_malformed(tmp_path, capsys):
    fixture = tmp_path / "binary.txt"
    fixture.write_bytes(b"OP 1 POP\nSCHED 1 \xff\n")
    assert main(["replay", str(fixture)]) == 3
    assert capsys.readouterr().out.startswith("MALFORMED")


@pytest.mark.parametrize(
    "schedule, fragment",
    [("SCHED 1 1", "no operations left"), ("SCHED 2", "thread 2"), ("SCHED 0", "thread 0")],
)
def test_replay_impossible_schedule_is_malformed(tmp_path, capsys, schedule, fragment):
    fixture = tmp_path / "overrun.txt"
    fixture.write_text(f"OP 1 POP\n{schedule}\n", encoding="utf-8")
    assert main(["replay", str(fixture)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("MALFORMED") and fragment in out


def test_replay_missing_fixture(capsys):
    assert main(["replay", "/no/such/fixture.txt"]) == 3
    assert "MALFORMED" in capsys.readouterr().out


def test_replay_fixture_without_schedule(tmp_path, capsys):
    fixture = tmp_path / "nosched.txt"
    fixture.write_text("OP 1 POP\n", encoding="utf-8")
    assert main(["replay", str(fixture)]) == 3
    assert "SCHED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def test_explore_summary(capsys):
    code = main(["explore", "--threads", "2", "--ops", "1"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "mixes=4" in captured
    assert "setlin_rejected=0" in captured
    assert "shared_return=0" in captured  # one pop per thread cannot share
    assert "distinct_histories=14\n" in captured


def test_explore_verbose_lists_mixes(capsys):
    main(["explore", "--threads", "1", "--ops", "1", "-v"])
    captured = capsys.readouterr().out
    assert "mix PUSH: 1 interleavings" in captured
    assert "mix POP: 1 interleavings" in captured


def pop_without_removing(top, node, line, t):
    """A broken pop: returns the top element without flagging or swinging it."""
    if line == 20:
        return DONE, t.element
    return pop_step(top, node, line, t)


def test_explore_reports_a_rejected_schedule(monkeypatch, capsys):
    monkeypatch.setattr(simulator, "pop_step", pop_without_removing)
    assert main(["explore", "--threads", "1", "--ops", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "setlin_rejected=1 " in lines[0]
    assert lines[1:] == [
        "REJECTED schedule (1, 1, 1, 1, 1, 1, 1): "
        "ops 2 and 3 both popped id #1 but do not overlap in real time"
    ]


def test_explore_prints_at_most_five_rejected_schedules(monkeypatch, capsys):
    monkeypatch.setattr(simulator, "pop_step", pop_without_removing)
    assert main(["explore", "--threads", "1", "--ops", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("threads=1 ops_per_thread=5 ")
    assert len(lines) == 6
    assert all(line.startswith("REJECTED schedule (") for line in lines[1:])


# sha256 of each command's stdout followed by "exit <code>\n".
GOLDEN_SHA256 = {
    "explore --threads 2 --ops 1 -v": (
        "7f03c65861c4a0a58f5449341811b779f42d771a165149b5cd0df38a22770080"
    ),
    "replay shared_pop": "84a3d6d138e4db6f785e231af0df7ffd397f487606bb0c25400887a0154d5741",
    "replay helped_pop": "7f76bcd15876d8a12743b6c1b7107bb3a99d3c9e382bc056bfc0df91846d6eb1",
    "replay push_race": "c23bc0dcb707e6b367b7215b348430c5e7060df6ae4c7624dee48ec735a1f467",
    "replay push_helps": "d21111cb54b6f86c63764b770c62a7dc0b8e559f37860fea5815a1ff7ffa6523",
}


@pytest.mark.parametrize("command", GOLDEN_SHA256)
def test_output_matches_its_golden_digest(command, capsys):
    code = main(command.split())
    output = f"{capsys.readouterr().out}exit {code}\n"
    assert hashlib.sha256(output.encode()).hexdigest() == GOLDEN_SHA256[command]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_emits_csv(capsys):
    code = main(
        ["bench", "--impls", "relaxed", "--threads", "1,2", "-n", "60", "--seed", "2"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["impl"] for row in rows] == ["relaxed", "relaxed"]
    assert [row["threads"] for row in rows] == ["1", "2"]
    assert int(rows[0]["total_ops"]) == 60 and int(rows[1]["total_ops"]) == 120
    assert all(float(row["seconds"]) >= 0 for row in rows)


def test_bench_zero_ops_prints_only_the_header(capsys):
    assert main(["bench", "-n", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("impl,")


def opcodes_per_op(impl: str) -> float:
    """Bytecode instructions a single-thread unchecked run executes per op."""
    plan = RunConfig(impl, 1, 2000, seed=1).plans()[0]
    stack = make_stack(impl, checked=False)
    push, pop, make_element = stack.push, stack.pop, stack.make_element
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for value in plan:
            if value is None:
                pop(None)
            else:
                push(make_element(value), None)
    finally:
        sys.settrace(previous)
    return executed / len(plan)


def test_single_thread_throughput_is_comparable():
    # With no contention the two stacks do nearly the same work per op.
    # Counted as executed bytecode, not timed: a run of a few milliseconds
    # is at the mercy of the host's speed.
    work = {impl: opcodes_per_op(impl) for impl in ("relaxed", "baseline")}
    ratio = max(work.values()) / min(work.values())
    assert ratio < 2.0, f"single-thread work per op differs by {ratio:.2f}x: {work}"


# ---------------------------------------------------------------------------
# size and stack options
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--threads", "1,x"], "--threads: not an integer: 'x'"),
        (["bench", "--threads="], "--threads: not an integer: ''"),
        (["bench", "-n", "-1"], "--ops-per-thread: must not be negative: -1"),
        (["explore", "--threads", "-1"], "--threads: must not be negative: -1"),
        (["explore", "--ops", "two"], "--ops: not an integer: 'two'"),
        (["stress", "-t", "-1"], "--threads: must not be negative: -1"),
        (["stress", "-n", "1.5"], "--ops-per-thread: not an integer: '1.5'"),
        (["check", "h.history", "--max-ops", "-1"], "--max-ops: must not be negative: -1"),
        # Stack names are checked the same way.
        (["bench", "--impls", "nope", "-n", "10"], "--impls: unknown implementation 'nope'"),
        (["bench", "--impls", ",", "-n", "10"], "--impls: unknown implementation ''"),
        (["bench", "--impls", "relaxed,treiber"], "--impls: unknown implementation 'treiber'"),
    ],
)
def test_bad_counts_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_zero_counts_still_run(tmp_path, capsys):
    assert main(["stress", "-t", "0", "-o", str(tmp_path / "none.history")]) == 0
    assert "total_ops=0" in capsys.readouterr().out
    assert main(["explore", "--ops", "0"]) == 0
    assert "interleavings=1 " in capsys.readouterr().out
    assert main(["bench", "-n", "0", "--threads", "0"]) == 0


# ---------------------------------------------------------------------------
# Pipeline closure
# ---------------------------------------------------------------------------


def test_stress_then_check_round_trip(tmp_path, capsys):
    relaxed = tmp_path / "relaxed.history"
    baseline = tmp_path / "baseline.history"
    assert main(["stress", "-t", "4", "-n", "4", "--seed", "11", "-o", str(relaxed)]) == 0
    assert main(["check", str(relaxed), "--mode", "setlin"]) == 0
    assert main(
        ["stress", "--impl", "baseline", "-t", "4", "-n", "4", "--seed", "11", "-o", str(baseline)]
    ) == 0
    assert main(["check", str(baseline), "--mode", "lin"]) == 0
