"""Recorder discipline, operation extraction, precedence, and the line format."""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter

import pytest

from multistack.harness import RunConfig, run_stress
from multistack.elements import EMPTY, Element
from multistack.history import (
    Event,
    EventKind,
    History,
    HistoryFormatError,
    IllFormedHistory,
    OperationRecord,
    OpName,
    Recorder,
    RecorderError,
    complete_operations,
    concurrent,
    dumps,
    format_event,
    loads,
    operations,
    parse_event,
    pending_operations,
    precedes,
    read_history,
    write_history,
)
from multistack.relaxed_stack import RelaxedStack
from support import (
    build_history,
    random_history,
    random_simulated_history,
    sequential_history,
)

E1 = Element(5, 1)
E2 = Element(9, 2)


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


def test_recorder_assigns_gapless_sequence():
    recorder = Recorder()
    recorder.invocation(1, 1, OpName.PUSH, E1)
    recorder.tracer(1, 1)(3)
    recorder.response(1, 1, True)
    recorder.invocation(1, 2, OpName.POP)
    recorder.response(1, 2, E1)
    history = recorder.history()
    assert [e.seq for e in history.events] == [0, 1, 2, 3]
    assert [e.kind for e in history.events] == [
        EventKind.INVOCATION,
        EventKind.RESPONSE,
    ] * 2


def test_recorder_rejects_double_invocation():
    recorder = Recorder()
    recorder.invocation(1, 1, OpName.POP)
    with pytest.raises(RecorderError):
        recorder.invocation(1, 2, OpName.POP)


def test_recorder_rejects_mismatched_response():
    recorder = Recorder()
    recorder.invocation(1, 1, OpName.POP)
    with pytest.raises(RecorderError):
        recorder.response(1, 2, EMPTY)


def test_recorder_rejects_orphan_step_and_response():
    recorder = Recorder()
    with pytest.raises(RecorderError):
        recorder.tracer(1, 1)(3)
    with pytest.raises(RecorderError):
        recorder.response(1, 1, True)


def test_recorder_rejects_push_without_argument():
    recorder = Recorder()
    with pytest.raises(RecorderError):
        recorder.invocation(1, 1, OpName.PUSH)


def test_recorder_step_counting_mode():
    recorder = Recorder()
    recorder.invocation(1, 1, OpName.POP)
    step = recorder.tracer(1, 1)
    step(16)
    step(16)
    recorder.response(1, 1, EMPTY)
    history = recorder.history()
    assert [e.kind for e in history.events] == [EventKind.INVOCATION, EventKind.RESPONSE]
    assert recorder.step_counts() == {16: 2}


def test_recorder_under_contention_stays_well_formed():
    recorder = Recorder()
    ops_per_thread = 200
    threads = 8

    def worker(thread: int) -> None:
        process = thread + 1
        for i in range(ops_per_thread):
            op_id = thread * ops_per_thread + i + 1
            recorder.invocation(process, op_id, OpName.POP)
            recorder.tracer(process, op_id)(16)
            recorder.response(process, op_id, EMPTY)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    history = recorder.history()
    assert len(history.events) == threads * ops_per_thread * 2
    records = operations(history)  # raises if anything is out of order
    assert len(records) == threads * ops_per_thread
    assert all(r.complete for r in records)
    assert recorder.step_counts() == {16: threads * ops_per_thread}


def test_recorder_counts_every_step_under_preemption():
    recorder = Recorder()
    threads, ops_per_thread = 6, 300
    counted_midway = []

    def worker(thread: int) -> None:
        process = thread + 1
        for i in range(ops_per_thread):
            op_id = thread * ops_per_thread + i + 1
            recorder.invocation(process, op_id, OpName.PUSH, Element(i, op_id))
            step = recorder.tracer(process, op_id)
            for line in (3, 4, 6):
                step(line)
            recorder.response(process, op_id, True)
            if i == ops_per_thread // 2:
                counted_midway.append(recorder.step_counts())

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)
    assert len(counted_midway) == threads
    total = threads * ops_per_thread
    assert recorder.step_counts() == {3: total, 4: total, 6: total}
    assert len(operations(recorder.history())) == total


def test_lock_free_recorder_on_real_threads():
    # A live stack, four threads preempted as often as the interpreter
    # allows: the append order must still be one well-formed history.
    recorder = Recorder()
    stack = RelaxedStack(checked=True)
    threads, ops_per_thread = 4, 2000
    total = threads * ops_per_thread
    traced = [Counter() for _ in range(threads)]  # trace calls, each thread its own
    start = threading.Barrier(threads)

    def worker(thread: int) -> None:
        process = thread + 1
        rng = random.Random(thread)
        calls = traced[thread]
        start.wait(timeout=60)
        for op_id in range(process, total + 1, threads):
            step = recorder.tracer(process, op_id)

            def trace(line: int) -> None:
                calls[line] += 1
                time.sleep(0)  # hand the GIL over between lines, not only on the timer
                step(line)

            if rng.random() < 0.5:
                element = stack.make_element(op_id)
                recorder.invocation(process, op_id, OpName.PUSH, element)
                stack.push(element, trace)
                recorder.response(process, op_id, True)
            else:
                recorder.invocation(process, op_id, OpName.POP)
                recorder.response(process, op_id, stack.pop(trace))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)
    events = recorder.history().events
    assert [e.seq for e in events] == list(range(2 * total))
    for process in range(1, threads + 1):
        mine = [e for e in events if e.process == process]
        assert [e.kind for e in mine] == [EventKind.INVOCATION, EventKind.RESPONSE] * ops_per_thread
        for invocation, response in zip(mine[::2], mine[1::2]):
            assert (response.op_id, response.name) == (invocation.op_id, invocation.name)
    assert sorted(e.op_id for e in events if e.kind is EventKind.INVOCATION) == list(
        range(1, total + 1)
    )
    assert recorder.step_counts() == dict(sum(traced, Counter()))
    assert not stack.invariant_violations
    # The threads did interleave, so the order above came from the appends.
    assert sum(a.process != b.process for a, b in zip(events, events[1:])) > 100


def test_stress_op_ids_are_per_thread_and_repeat_per_seed():
    config = RunConfig(threads=4, ops_per_thread=2000, seed=17)

    def invocations(history: History) -> dict[int, list[tuple]]:
        per_thread: dict[int, list[tuple]] = {}
        for e in history.events:
            if e.kind is EventKind.INVOCATION:
                value = e.payload.value if e.name is OpName.PUSH else None
                per_thread.setdefault(e.process, []).append((e.op_id, e.name, value))
        return per_thread

    first, second = (invocations(run_stress(config).history) for _ in range(2))
    assert first == second
    assert sorted(op for ops in first.values() for op, _, _ in ops) == list(
        range(1, config.total_ops + 1)
    )
    # Thread i numbers its ops i+1, i+1+T, ...: no shared counter.
    for process, ops in first.items():
        assert [op for op, _, _ in ops] == list(
            range(process, config.total_ops + 1, config.threads)
        )


# ---------------------------------------------------------------------------
# Operation records and precedence
# ---------------------------------------------------------------------------


def test_operations_pairs_invocations_and_responses():
    history = build_history(
        [
            ("inv", 1, 1, "push", E1),
            ("inv", 2, 2, "pop"),
            ("res", 1, 1, True),
            ("res", 2, 2, E1),
            ("inv", 1, 3, "pop"),
        ]
    )
    records = operations(history)
    assert [r.op_id for r in records] == [1, 2, 3]
    push, pop, dangling = records
    assert push.argument == E1 and push.result is True
    assert pop.result == E1
    assert not dangling.complete and dangling.result is None
    assert [r.op_id for r in complete_operations(history)] == [1, 2]
    assert [r.op_id for r in pending_operations(history)] == [3]


def test_loads_and_both_checks_pair_the_events_once(monkeypatch):
    from multistack import checker, history as history_module

    calls = []
    pair = history_module._pair
    monkeypatch.setattr(history_module, "_pair", lambda events: calls.append(1) or pair(events))
    text = dumps(
        build_history(
            [
                ("inv", 1, 1, "push", E1),
                ("inv", 2, 2, "pop"),
                ("res", 1, 1, True),
                ("inv", 1, 3, "pop"),
                ("res", 2, 2, E1),
                ("res", 1, 3, E1),
            ]
        )
    )
    history = loads(text)
    assert checker.check_set_linearizable(history).accepted
    assert not checker.check_linearizable(history).accepted
    assert len(calls) == 1


def test_operations_returns_a_fresh_list_each_call():
    from multistack.checker import check_set_linearizable

    history = sequential_history(("push", 1, E1), ("pop", 2, E1), ("pop", 3, EMPTY))
    before = check_set_linearizable(history)
    operations(history).clear()
    complete_operations(history).reverse()
    assert [r.op_id for r in operations(history)] == [1, 2, 3]
    after = check_set_linearizable(history)
    assert (after.outcome, after.witness) == (before.outcome, before.witness)
    # The kept records do not take part in equality or hashing.
    fresh = loads(dumps(history))
    assert history == fresh and hash(history) == hash(fresh)


def test_records_are_immutable_values():
    def build():
        return (
            Event(0, 1, 1, EventKind.INVOCATION, OpName.PUSH, Element(5, 1)),
            OperationRecord(1, 1, OpName.PUSH, Element(5, 1), True, 0, 1),
        )

    for first, second in zip(build(), build()):
        assert first is not second
        assert first == second and hash(first) == hash(second)
        with pytest.raises(AttributeError):
            first.op_id = 2
    script = (("push", 1, E1), ("pop", 2, E1))
    first, second = sequential_history(*script), sequential_history(*script)
    assert first.events[0] is not second.events[0]
    assert first == second and hash(first) == hash(second)
    assert repr(build()[0]) == (
        "Event(seq=0, process=1, op_id=1, kind=<EventKind.INVOCATION: 'INV'>, "
        "name=<OpName.PUSH: 'PUSH'>, payload=v:5#1)"
    )


def test_loads_gives_a_pop_its_pushs_element():
    text = dumps(sequential_history(("push", 1, E1), ("push", 2, E2), ("pop", 3, E2)))
    first, second, pop = operations(loads(text))
    assert pop.result is second.argument and pop.result is not first.argument


def test_precedes_and_concurrent():
    history = build_history(
        [
            ("inv", 1, 1, "push", E1),
            ("res", 1, 1, True),
            ("inv", 1, 2, "pop"),
            ("inv", 2, 3, "pop"),
            ("res", 1, 2, E1),
            ("res", 2, 3, E1),
        ]
    )
    a, b, c = operations(history)
    assert precedes(a, b) and precedes(a, c)
    assert not precedes(b, a)
    assert concurrent(b, c) and concurrent(c, b)
    assert not concurrent(a, a)


def test_precedence_is_a_strict_partial_order():
    rng = random.Random(20)
    for _ in range(60):
        records = complete_operations(random_history(rng))
        for a in records:
            assert not precedes(a, a)
            for b in records:
                if precedes(a, b):
                    assert not precedes(b, a)
                for c in records:
                    if precedes(a, b) and precedes(b, c):
                        assert precedes(a, c)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_event_line_round_trip():
    cases = [
        Event(0, 1, 1, EventKind.INVOCATION, OpName.PUSH, E1),
        Event(1, 1, 1, EventKind.RESPONSE, OpName.PUSH, True),
        Event(2, 2, 2, EventKind.INVOCATION, OpName.POP, None),
        Event(3, 2, 2, EventKind.STEP, OpName.POP, 21),
        Event(4, 2, 2, EventKind.RESPONSE, OpName.POP, EMPTY),
        Event(5, 3, 3, EventKind.RESPONSE, OpName.POP, Element(-4, 17)),
    ]
    for event in cases:
        assert parse_event(format_event(event), 1) == event


def test_format_examples():
    assert format_event(Event(0, 1, 1, EventKind.INVOCATION, OpName.PUSH, E1)) == (
        "0 1 1 INV PUSH v:5#1"
    )
    assert format_event(Event(4, 2, 7, EventKind.STEP, OpName.POP, 22)) == (
        "4 2 7 STEP POP L22"
    )


def test_history_round_trip_through_text():
    history = sequential_history(("push", 1, E1), ("push", 2, E2), ("pop", 3, E2))
    assert loads(dumps(history)) == history


def test_file_round_trip(tmp_path):
    history = sequential_history(("push", 1, E1), ("pop", 2, E1), ("pop", 3, EMPTY))
    path = tmp_path / "run.history"
    write_history(history, path)
    assert read_history(path) == history


def test_loads_ignores_blank_lines():
    text = "\n0 1 1 INV POP -\n\n1 1 1 RES POP empty\n\n"
    assert len(loads(text).events) == 2


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("0 1 1 INV POP", "6 fields"),
        ("x 1 1 INV POP -", "integers"),
        ("0 1 1 WAT POP -", "kind"),
        ("0 1 1 INV SHIFT -", "operation"),
        ("0 1 1 INV PUSH v:13", "'#'"),
        ("0 1 1 INV PUSH nope", "payload"),
        ("0 1 1 INV POP L3", "STEP"),
        ("0 1 1 STEP POP empty", "L<line>"),
        ("0 1 1 INV POP v:1#1", "'-'"),
        ("0 1 1 INV POP true", "'-'"),
        ("0 1 1 RES POP -", "'-'"),
    ],
)
def test_parse_event_errors(line, fragment):
    with pytest.raises(HistoryFormatError) as info:
        parse_event(line, 7)
    assert info.value.lineno == 7
    assert fragment in str(info.value)


def test_loads_reports_out_of_order_seq():
    text = "0 1 1 INV POP -\n2 1 1 RES POP empty\n"
    with pytest.raises(HistoryFormatError) as info:
        loads(text)
    assert info.value.lineno == 2


def test_loads_reports_ill_formed_run_with_line():
    text = "\n".join(
        [
            "0 1 1 INV POP -",
            "1 1 1 RES POP empty",
            "2 1 2 RES POP empty",  # response with nothing pending
        ]
    )
    with pytest.raises(HistoryFormatError) as info:
        loads(text)
    assert info.value.lineno == 3


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("0 1 1 INV PUSH v:1#1\n1 1 1 RES POP true\n", 2, "names POP but op 1 is a PUSH"),
        ("0 1 1 INV POP -\n1 1 1 STEP PUSH L16\n", 2, "names PUSH but op 1 is a POP"),
        ("0 1 1 INV POP v:1#1\n1 1 1 RES POP empty\n", 1, "'-'"),
        ("0 1 1 INV POP true\n1 1 1 RES POP empty\n", 1, "'-'"),
        ("0 1 1 INV POP -\n1 1 1 RES POP -\n", 2, "'-'"),
    ],
)
def test_loads_rejects_malformed_events_with_line(text, lineno, fragment):
    with pytest.raises(HistoryFormatError) as info:
        loads(text)
    assert info.value.lineno == lineno
    assert fragment in str(info.value)


def test_read_history_rejects_undecodable_bytes_with_line(tmp_path):
    path = tmp_path / "binary.history"
    path.write_bytes(b"0 1 1 INV POP -\n1 1 1 RES POP \xff\n")
    with pytest.raises(HistoryFormatError) as info:
        read_history(path)
    assert info.value.lineno == 2
    assert "0xff" in str(info.value)


def reference_loads(text: str) -> History:
    """loads as a plain loop of parse_event over the lines."""
    events, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        event = parse_event(line, lineno)
        if event.seq != len(events):
            raise HistoryFormatError(
                lineno, f"seq {event.seq} out of order; expected {len(events)}"
            )
        events.append(event)
        linenos.append(lineno)
    history = History(tuple(events))
    try:
        operations(history)
    except IllFormedHistory as exc:
        raise HistoryFormatError(linenos[exc.seq], str(exc)) from None
    return history


# Tokens that int() or the payload grammar treats unevenly, and tokens of
# the other fields, so a mutation can land a field where another belongs.
ODD_TOKENS = (
    "007", "+1", "-1", "1_0", "²", "٣", "v:1", "v:1#", "v:+1#007", "v:1#2", "v:5#1",
    "L", "L3", "L+3", "L²", "-", "true", "True", "empty", "INV", "RES", "STEP", "PUSH",
    "POP", "pop", "0", "1", "2", "x", "#",
)


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        fields = lines[i].split(" ")
        action = rng.randrange(7)
        if action == 0:
            fields[rng.randrange(len(fields))] = rng.choice(ODD_TOKENS)
        elif action == 1 and len(fields) > 1:
            del fields[rng.randrange(len(fields))]
        elif action == 2:
            fields.insert(rng.randrange(len(fields) + 1), rng.choice(ODD_TOKENS))
        elif action == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif action == 4:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif action == 5:
            lines[i] = rng.choice(("", "   ", "\t"))
        else:
            lines[i] = lines[i].replace(" ", "  ", 1)
        if action in (0, 1, 2):
            lines[i] = " ".join(fields)
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def outcome(parse, text: str):
    try:
        history = parse(text)
    except HistoryFormatError as exc:
        return ("error", exc.lineno, str(exc))
    return ("history", history, [r.result for r in operations(history)])


def test_loads_agrees_with_line_by_line_parsing_on_mutated_texts():
    rng = random.Random(70)
    histories = [
        run_stress(RunConfig(threads=2, ops_per_thread=6, seed=s)).history for s in range(20)
    ]
    histories += [random_simulated_history(rng, 6) for _ in range(20)]  # STEP lines too
    errors = 0
    for trial in range(5000):
        text = mutate(rng, dumps(histories[trial % len(histories)]))
        expected = outcome(reference_loads, text)
        assert outcome(loads, text) == expected, text
        errors += expected[0] == "error"
    assert 2500 < errors < 5000  # both outcomes well represented


def test_dumps_is_format_event_per_line():
    rng = random.Random(71)
    histories = [
        run_stress(RunConfig(threads=3, ops_per_thread=40, seed=s)).history for s in range(5)
    ]
    histories += [random_simulated_history(rng, 8) for _ in range(200)]
    histories.append(History(()))
    for history in histories:
        assert dumps(history) == "".join(format_event(e) + "\n" for e in history.events)


def test_history_validates_gapless_seq():
    with pytest.raises(ValueError):
        History((Event(1, 1, 1, EventKind.INVOCATION, OpName.POP, None),))
