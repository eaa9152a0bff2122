"""The baseline stack: plain LIFO, and no element ever returned twice."""

from __future__ import annotations

import random

from multistack import harness
from multistack.baseline_stack import TreiberStack
from multistack.elements import EMPTY
from multistack.harness import RunConfig, bench_once


def test_sequential_lifo():
    stack = TreiberStack()
    model = []
    rng = random.Random(2)
    for _ in range(400):
        if rng.random() < 0.55:
            element = stack.make_element(rng.randint(1, 9))
            assert stack.push(element) is True
            model.append(element)
        else:
            result = stack.pop()
            assert result == (model.pop() if model else EMPTY)
            if result is EMPTY:
                assert not model
    assert stack.logical_state() == tuple(model)


def test_pop_on_empty():
    assert TreiberStack().pop() is EMPTY


def test_threaded_returns_are_unique_and_conserved(monkeypatch):
    # Switching threads as often as the interpreter allows, a compare-and-set
    # that a switch can split shares returns and loses pushes in every run.
    monkeypatch.setattr(harness, "SWITCH_INTERVAL", 1e-6)
    bench_once(RunConfig("baseline", threads=4, ops_per_thread=5000, seed=3))
