"""The live relaxed stack: sequential semantics, instrumentation hooks,
helping behavior, and real-thread stress with conservation checks."""

from __future__ import annotations

import dis
import gc
import random
import sys
import threading
import time
import types

import pytest

from multistack import harness
from multistack.baseline_stack import TreiberStack
from multistack.elements import EMPTY, Element
from multistack.harness import RunConfig, conservation_errors, run_stress
from multistack.history import OpName
from multistack.relaxed_stack import AtomicReference, RelaxedStack


def test_atomic_reference_compare_and_set():
    cell = AtomicReference(None)
    token_a = object()
    token_b = object()
    assert cell.compare_and_set(None, token_a)
    assert cell.value is token_a
    assert not cell.compare_and_set(None, token_b)
    assert cell.compare_and_set(token_a, token_b)
    assert cell.value is token_b


# CPython 3.11's eval loop switches threads only at RESUME, at backward jumps
# and at calls.  None of these opcodes is one of those.
NON_SWITCHING_OPCODES = frozenset(
    {
        "LOAD_FAST",
        "LOAD_ATTR",
        "LOAD_CONST",
        "IS_OP",
        "POP_JUMP_FORWARD_IF_FALSE",
        "POP_JUMP_FORWARD_IF_TRUE",
        "STORE_ATTR",
        "RETURN_VALUE",
    }
)


def test_compare_and_set_has_no_thread_switch_point():
    # AtomicReference takes no lock: its compare and its store are atomic
    # only because no thread switch can fall between them.
    instructions = list(dis.get_instructions(AtomicReference.compare_and_set))
    assert [i.offset for i in instructions if i.opname == "RESUME"] == [0]
    assert {i.opname for i in instructions[1:]} <= NON_SWITCHING_OPCODES
    # A property would hide a call behind LOAD_ATTR/STORE_ATTR: every
    # attribute touched must be a plain slot.
    for name in {i.argval for i in instructions if i.opname.endswith("_ATTR")}:
        assert isinstance(getattr(AtomicReference, name), types.MemberDescriptorType)


def test_atomic_reference_compares_identity_not_equality():
    first = Element(1, 1)
    twin = Element(1, 1)  # equal value, distinct object
    cell = AtomicReference(first)
    assert not cell.compare_and_set(twin, None) or first is twin
    assert cell.compare_and_set(first, None)


def test_sequential_lifo_matches_list_model():
    stack = RelaxedStack()
    model = []
    rng = random.Random(11)
    for _ in range(500):
        if rng.random() < 0.55:
            element = stack.make_element(rng.randint(1, 9))
            assert stack.push(element) is True
            model.append(element)
        else:
            result = stack.pop()
            if model:
                assert result == model.pop()
            else:
                assert result is EMPTY
    assert stack.logical_state() == tuple(model)


def test_pop_on_empty_returns_the_marker():
    stack = RelaxedStack()
    assert stack.pop() is EMPTY
    assert stack.pop() is EMPTY


def test_push_ids_are_unique():
    stack = RelaxedStack()
    ids = {stack.make_element(1).push_id for _ in range(100)}
    assert len(ids) == 100


@pytest.mark.parametrize("make_stack", [RelaxedStack, TreiberStack])
def test_push_ids_are_minted_once_each_across_threads(make_stack):
    # Minting takes no lock; preempted as often as the interpreter allows,
    # four threads must still get every id exactly once.
    stack = make_stack()
    threads, per_thread = 4, 5000
    minted = [[] for _ in range(threads)]
    start = threading.Barrier(threads)

    def worker(thread: int) -> None:
        keep, make_element = minted[thread].append, stack.make_element
        start.wait(timeout=60)
        for _ in range(per_thread):
            keep(make_element(thread).push_id)
            time.sleep(0)  # hand the GIL over, so the others mint in between

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
    assert sorted(i for ids in minted for i in ids) == list(range(1, threads * per_thread + 1))


def test_element_is_an_immutable_value():
    element = Element(5, 1)
    assert element == Element(5, 1) and element is not Element(5, 1)
    assert element != Element(5, 2) and element != Element(6, 1)
    assert {element, Element(5, 1), Element(5, 2)} == {Element(5, 1), Element(5, 2)}
    assert repr(element) == "v:5#1"
    assert (element.value, element.push_id) == (5, 1)
    with pytest.raises(AttributeError):
        element.value = 6


def test_logical_state_orders_deepest_first():
    stack = RelaxedStack()
    for value in (17, 11, 8, 12):
        stack.push(stack.make_element(value))
    assert [e.value for e in stack.logical_state()] == [17, 11, 8, 12]
    assert [(e.value, elim) for e, elim in stack.memory_snapshot()] == [
        (17, False),
        (11, False),
        (8, False),
        (12, False),
    ]


def test_logical_state_skips_deleted_nodes():
    stack = RelaxedStack()
    for value in (17, 11, 7):
        stack.push(stack.make_element(value))
    stack._top.value.next.elim = True  # mark the middle node deleted
    assert [e.value for e in stack.logical_state()] == [17, 7]
    assert [(e.value, elim) for e, elim in stack.memory_snapshot()] == [
        (17, False),
        (11, True),
        (7, False),
    ]


def python_frames(action, *args) -> list[str]:
    """Names of the Python frames one call of action runs, action's own first.
    Collection is off, so no finalizer's frame gets in."""
    frames = []

    def profile(frame, event, arg) -> None:
        if event == "call":
            frames.append(frame.f_code.co_name)

    gc.disable()
    sys.setprofile(profile)
    try:
        action(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return frames


def test_the_unchecked_fast_path_calls_only_compare_and_set():
    # The live stack's cost is mostly Python calls: a push runs three frames
    # (make_element, push, compare_and_set) and a pop two.  A dispatch or
    # load method put back on the path fails here.
    stack = RelaxedStack()
    for _ in range(2):  # onto an empty stack, then onto a node
        element = stack.make_element(5)
        assert python_frames(stack.make_element, 5) == ["make_element"]
        assert python_frames(stack.push, element) == ["push", "compare_and_set"]
    for _ in range(2):
        assert python_frames(stack.pop) == ["pop", "compare_and_set"]
    assert python_frames(stack.pop) == ["pop"]  # empty: a load and out


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def trace_lines(action):
    lines = []
    action(lines.append)
    return lines


def test_push_and_pop_step_lines():
    stack = RelaxedStack()
    element = stack.make_element(5)
    assert trace_lines(lambda t: stack.push(element, t)) == [3, 4, 6]
    assert trace_lines(stack.pop) == [16, 17, 20, 21, 22]
    assert trace_lines(stack.pop) == [16, 17]  # empty: load, test, out


def test_push_helps_past_a_deleted_top():
    stack = RelaxedStack()
    stack.push(stack.make_element(5))
    stack._top.value.elim = True
    lines = trace_lines(lambda t: stack.push(stack.make_element(6), t))
    assert lines == [3, 4, 10, 3, 4, 6]
    assert [e.value for e in stack.logical_state()] == [6]
    assert [(e.value, elim) for e, elim in stack.memory_snapshot()] == [(6, False)]


def test_pop_helps_past_a_deleted_top():
    stack = RelaxedStack()
    stack.push(stack.make_element(5))
    stack.push(stack.make_element(6))
    stack._top.value.elim = True
    lines = trace_lines(stack.pop)
    assert lines == [16, 17, 20, 25, 16, 17, 20, 21, 22]
    assert stack.logical_state() == ()


def test_guarded_nodes_report_flag_regression():
    stack = RelaxedStack(checked=True)
    stack.push(stack.make_element(1))
    node = stack._top.value
    node.elim = True
    node.elim = False  # the forbidden direction
    assert stack.invariant_violations
    assert "False" in stack.invariant_violations[0]


def test_guarded_nodes_allow_the_one_way_write():
    stack = RelaxedStack(checked=True)
    stack.push(stack.make_element(1))
    stack.pop()
    stack.push(stack.make_element(2))
    stack.pop()
    assert stack.invariant_violations == []


def test_guarded_nodes_hold_no_reference_to_their_stack():
    # The stack reaches its nodes through top; a node reaching back would
    # leave every checked stack to the cyclic collector.
    stack = RelaxedStack(checked=True)
    stack.push(stack.make_element(1))
    stack.push(stack.make_element(2))
    node = stack._top.value
    assert stack not in gc.get_referents(node)
    reached, frontier = set(), [node]
    while frontier:  # everything the node reaches, short of classes
        obj = frontier.pop()
        if id(obj) not in reached and not isinstance(obj, type):
            reached.add(id(obj))
            frontier.extend(gc.get_referents(obj))
    assert id(stack) not in reached


# ---------------------------------------------------------------------------
# Real threads
# ---------------------------------------------------------------------------


def test_threaded_conservation_and_invariants(monkeypatch):
    # Switching threads as often as the interpreter allows, a compare-and-set
    # that a switch can split loses pushes in every run.
    monkeypatch.setattr(harness, "SWITCH_INTERVAL", 1e-6)
    result = run_stress(RunConfig("relaxed", threads=4, ops_per_thread=5000, seed=5))
    assert conservation_errors(result.stack, result.outcomes) == []  # invariants too


def test_unchecked_threaded_conservation_and_node_fields(monkeypatch):
    # The path the live benchmark times: unchecked nodes, built without an
    # __init__, under as many thread switches as the interpreter allows.
    monkeypatch.setattr(harness, "SWITCH_INTERVAL", 1e-6)
    config = RunConfig("relaxed", threads=2, ops_per_thread=5000, seed=7)
    stack = RelaxedStack()
    outcomes, _, _ = harness.drive(config, stack)
    assert conservation_errors(stack, outcomes) == []
    # An unset slot raises here: the snapshot reads every reachable node's
    # element and elim, and its walk reads next.  Seed 7's plans push 62
    # more times than they pop, so at least 62 nodes stay reachable.
    snapshot = stack.memory_snapshot()
    assert tuple(e for e, deleted in snapshot if not deleted) == stack.logical_state()
    assert len(stack.logical_state()) >= 62


def test_a_pop_parked_after_its_flag_write_is_helped_past():
    # A live crash: thread A pops and parks in its trace right after the
    # line-21 flag write, before its swing.  Thread B must not wait on it.
    stack = RelaxedStack(checked=True)
    prefill = [stack.make_element(value) for value in range(1, 7)]
    for element in prefill:
        stack.push(element)
    flagged = prefill[-1]
    parked, release = threading.Event(), threading.Event()
    parked_result = []

    def park_at_flag_write(line: int) -> None:
        if line == 21:
            parked.set()
            release.wait(timeout=60)

    crashed = threading.Thread(
        target=lambda: parked_result.append(stack.pop(park_at_flag_write)),
        daemon=True,
    )
    crashed.start()
    try:
        assert parked.wait(timeout=60)
        helper_lines = set()
        helper_outcomes = []

        def helper() -> None:
            record = helper_outcomes.append
            for kind in ("push", "pop", "pop", "push", "pop", "pop", "pop") * 3:
                if kind == "push":
                    element = stack.make_element(9)
                    stack.push(element, helper_lines.add)
                    record((OpName.PUSH, element))
                else:
                    record((OpName.POP, stack.pop(helper_lines.add)))

        other = threading.Thread(target=helper, daemon=True)
        other.start()
        other.join(timeout=60)
        assert not other.is_alive() and len(helper_outcomes) == 21
        assert helper_lines & {10, 25}  # B swung top past the flagged node
        assert flagged not in stack.logical_state()
        assert flagged not in [e for e, _ in stack.memory_snapshot()]  # unlinked
        assert (OpName.POP, flagged) not in helper_outcomes
        assert parked_result == []  # A was parked all along
    finally:
        release.set()
        crashed.join(timeout=60)
    assert not crashed.is_alive()
    assert parked_result == [flagged]
    outcomes = [[(OpName.PUSH, e) for e in prefill], helper_outcomes, [(OpName.POP, flagged)]]
    assert conservation_errors(stack, outcomes) == []
