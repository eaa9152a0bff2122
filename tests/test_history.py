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
    format_payload,
    loads,
    operations,
    parse_event,
    precedes,
    read_history,
    write_history,
)
from multistack.relaxed_stack import RelaxedStack
from multistack.simulator import seeded_history
from support import (
    build_history,
    random_history,
    seq_column,
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
    recorder.response(1, 1, True)
    recorder.invocation(1, 2, OpName.POP)
    recorder.response(1, 2, E1)
    history = recorder.history()
    assert seq_column(history.events) == [0, 1, 2, 3]
    assert history.events == (
        Event(1, 1, EventKind.INVOCATION, OpName.PUSH, E1),
        Event(1, 1, EventKind.RESPONSE, OpName.PUSH, True),
        Event(1, 2, EventKind.INVOCATION, OpName.POP, None),
        Event(1, 2, EventKind.RESPONSE, OpName.POP, E1),
    )


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


def test_recorder_rejects_orphan_response():
    recorder = Recorder()
    with pytest.raises(RecorderError):
        recorder.response(1, 1, True)


def test_recorder_rejects_push_without_argument():
    recorder = Recorder()
    with pytest.raises(RecorderError):
        recorder.invocation(1, 1, OpName.PUSH)


def test_recorder_rejects_pop_with_argument():
    recorder = Recorder()
    with pytest.raises(RecorderError, match="pop invocation of op 1 with an argument"):
        recorder.invocation(1, 1, OpName.POP, Element(1, 1))


def test_recorder_step_counting_mode():
    # Steps never reach the recorder: the caller's trace counts them per line.
    recorder = Recorder()
    counts = Counter()
    recorder.invocation(1, 1, OpName.POP)
    returned = RelaxedStack(checked=True).pop(lambda line: counts.update((line,)))
    recorder.response(1, 1, returned)
    history = recorder.history()
    assert returned is EMPTY
    assert [e.kind for e in history.events] == [EventKind.INVOCATION, EventKind.RESPONSE]
    assert counts == {16: 1, 17: 1}


def test_recorder_under_contention_stays_well_formed():
    recorder = Recorder()
    ops_per_thread = 200
    threads = 8

    def worker(thread: int) -> None:
        process = thread + 1
        for i in range(ops_per_thread):
            op_id = thread * ops_per_thread + i + 1
            recorder.invocation(process, op_id, OpName.POP)
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
    assert all(r.responded_at is not None for r in records)


def test_lock_free_recorder_on_real_threads():
    # A live stack, four threads preempted as often as the interpreter
    # allows: the append order must still be one well-formed history.
    recorder = Recorder()
    stack = RelaxedStack(checked=True)
    threads, ops_per_thread = 4, 2000
    total = threads * ops_per_thread
    start = threading.Barrier(threads)

    def worker(thread: int) -> None:
        process = thread + 1
        rng = random.Random(thread)
        start.wait(timeout=60)

        def trace(line: int) -> None:
            time.sleep(0)  # hand the GIL over between lines, not only on the timer

        for op_id in range(process, total + 1, threads):
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
    assert seq_column(events) == list(range(2 * total))
    for process in range(1, threads + 1):
        mine = [e for e in events if e.process == process]
        assert [e.kind for e in mine] == [EventKind.INVOCATION, EventKind.RESPONSE] * ops_per_thread
        for invocation, response in zip(mine[::2], mine[1::2]):
            assert (response.op_id, response.name) == (invocation.op_id, invocation.name)
    assert sorted(e.op_id for e in events if e.kind is EventKind.INVOCATION) == list(
        range(1, total + 1)
    )
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
    assert dangling.responded_at is None and dangling.result is None
    assert [r.op_id for r in complete_operations(history)] == [1, 2]


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


def test_loads_parses_in_full_one_line_per_head(monkeypatch):
    # Only a line whose (KIND, NAME, payload type) loads has not accepted yet
    # goes through parse_event; every other line, a new element's first
    # included, takes the cached path.
    from multistack import history as history_module

    calls = []
    parse = history_module._parse_event
    monkeypatch.setattr(
        history_module, "_parse_event", lambda *args: calls.append(1) or parse(*args)
    )
    for seed in range(4):
        history = run_stress(RunConfig(threads=2, ops_per_thread=256, seed=seed)).history
        calls.clear()
        assert loads(dumps(history)) == history
        heads = {(e.kind, e.name, type(e.payload)) for e in history.events}
        assert len(calls) == len(heads) == 5


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
            Event(1, 1, EventKind.INVOCATION, OpName.PUSH, Element(5, 1)),
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
        "Event(process=1, op_id=1, kind=<EventKind.INVOCATION: 'INV'>, "
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
        Event(1, 1, EventKind.INVOCATION, OpName.PUSH, E1),
        Event(1, 1, EventKind.RESPONSE, OpName.PUSH, True),
        Event(2, 2, EventKind.INVOCATION, OpName.POP, None),
        Event(2, 2, EventKind.STEP, OpName.POP, 21),
        Event(2, 2, EventKind.RESPONSE, OpName.POP, EMPTY),
        Event(3, 3, EventKind.RESPONSE, OpName.POP, Element(-4, 17)),
    ]
    for seq, event in enumerate(cases):
        assert parse_event(format_event(seq, event), 1) == (seq, event)


def test_format_examples():
    assert format_event(0, Event(1, 1, EventKind.INVOCATION, OpName.PUSH, E1)) == (
        "0 1 1 INV PUSH v:5#1"
    )
    assert format_event(4, Event(2, 7, EventKind.STEP, OpName.POP, 22)) == (
        "4 2 7 STEP POP L22"
    )


def test_format_payload_rejects_an_unencodable_payload():
    with pytest.raises(ValueError, match="unencodable payload 3.5"):
        format_payload(3.5)


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
        ("0 1 1 INV POP -\n1 1 2 INV POP -\n", 2, "process 1 invoked op 2 while op 1 is pending"),
        ("0 1 1 INV PUSH true\n", 1, "push invocation of op 1 lacks an element"),
        ("0 1 1 INV POP -\n1 1 1 RES POP empty\n2 2 1 INV POP -\n", 3, "op 1 invoked twice"),
        # A second invocation of an op is refused before its process's pending op.
        ("0 1 1 INV POP -\n1 1 1 INV POP -\n", 2, "op 1 invoked twice"),
        (
            "0 1 1 INV POP -\n1 1 2 RES POP empty\n",
            2,
            "response for op 2 does not match the pending operation of process 1",
        ),
        (
            "0 1 1 INV POP -\n1 1 1 RES POP empty\n2 1 2 RES POP empty\n",
            3,
            "response for op 2 does not match the pending operation of process 1",
        ),
        (
            "0 1 1 INV POP -\n1 1 2 STEP POP L16\n",
            2,
            "step for op 2 outside its invocation interval",
        ),
        ("0 1 1 STEP POP L16\n", 1, "step for op 1 outside its invocation interval"),
        # A wrong op is refused before a wrong name.
        (
            "0 1 1 INV POP -\n1 1 2 STEP PUSH L3\n",
            2,
            "step for op 2 outside its invocation interval",
        ),
        (
            "0 1 1 INV POP -\n1 1 2 RES PUSH true\n",
            2,
            "response for op 2 does not match the pending operation of process 1",
        ),
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
        seq, event = parse_event(line, lineno)
        if seq != len(events):
            raise HistoryFormatError(lineno, f"seq {seq} out of order; expected {len(events)}")
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
    histories += [seeded_history(seed, 3, 2) for seed in range(20)]  # STEP lines too
    errors = 0
    for trial in range(5000):
        text = mutate(rng, dumps(histories[trial % len(histories)]))
        expected = outcome(reference_loads, text)
        assert outcome(loads, text) == expected, text
        errors += expected[0] == "error"
    assert 2500 < errors < 5000  # both outcomes well represented


def test_dumps_is_format_event_per_line():
    histories = [
        run_stress(RunConfig(threads=3, ops_per_thread=40, seed=s)).history for s in range(5)
    ]
    histories += [seeded_history(seed, 3, 2) for seed in range(200)]
    histories.append(History(()))
    for history in histories:
        assert dumps(history) == "".join(
            format_event(seq, e) + "\n" for seq, e in enumerate(history.events)
        )


def test_dumps_raises_key_error_on_an_unknown_kind():
    with pytest.raises(KeyError):
        dumps(History((Event(1, 1, "INV", OpName.POP, None),)))
