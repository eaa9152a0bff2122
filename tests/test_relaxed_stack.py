"""The live relaxed stack: sequential semantics, instrumentation hooks,
helping behavior, and real-thread stress with conservation checks."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from multistack.baseline_stack import TreiberStack
from multistack.elements import EMPTY, Element
from multistack.relaxed_stack import AtomicReference, RelaxedStack


def test_atomic_reference_compare_and_set():
    cell = AtomicReference(None)
    token_a = object()
    token_b = object()
    assert cell.compare_and_set(None, token_a)
    assert cell.get() is token_a
    assert not cell.compare_and_set(None, token_b)
    assert cell.compare_and_set(token_a, token_b)
    assert cell.get() is token_b


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
    stack._top.get().next.elim = True  # mark the middle node deleted
    assert [e.value for e in stack.logical_state()] == [17, 7]
    assert [(e.value, elim) for e, elim in stack.memory_snapshot()] == [
        (17, False),
        (11, True),
        (7, False),
    ]


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
    stack._top.get().elim = True
    lines = trace_lines(lambda t: stack.push(stack.make_element(6), t))
    assert lines == [3, 4, 10, 3, 4, 6]
    assert [e.value for e in stack.logical_state()] == [6]
    assert [(e.value, elim) for e, elim in stack.memory_snapshot()] == [(6, False)]


def test_pop_helps_past_a_deleted_top():
    stack = RelaxedStack()
    stack.push(stack.make_element(5))
    stack.push(stack.make_element(6))
    stack._top.get().elim = True
    lines = trace_lines(stack.pop)
    assert lines == [16, 17, 20, 25, 16, 17, 20, 21, 22]
    assert stack.logical_state() == ()


def test_guarded_nodes_report_flag_regression():
    stack = RelaxedStack(checked=True)
    stack.push(stack.make_element(1))
    node = stack._top.get()
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


# ---------------------------------------------------------------------------
# Real threads
# ---------------------------------------------------------------------------


def run_threads(stack, thread_count, ops, seed):
    outcomes = [[] for _ in range(thread_count)]

    def worker(thread):
        rng = random.Random(seed * 1009 + thread)
        for _ in range(ops):
            if rng.random() < 0.5:
                element = stack.make_element(rng.randint(1, 9))
                stack.push(element)
                outcomes[thread].append(("push", element))
            else:
                outcomes[thread].append(("pop", stack.pop()))

    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(thread_count)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return outcomes


def test_threaded_conservation_and_invariants():
    stack = RelaxedStack(checked=True)
    outcomes = run_threads(stack, thread_count=4, ops=300, seed=5)
    pushed = {e.push_id for ops in outcomes for kind, e in ops if kind == "push"}
    popped = [
        e for ops in outcomes for kind, e in ops if kind == "pop" and e is not EMPTY
    ]
    remaining = {e.push_id for e in stack.logical_state()}
    assert {e.push_id for e in popped} | remaining == pushed
    assert not {e.push_id for e in popped} & remaining
    assert stack.invariant_violations == []
    stack.memory_snapshot()  # raises if the chain ever became cyclic
