"""Broken variants of the algorithm, and the small scenarios whose sweeps
reject them.

Each mutant is push_steps or pop_steps with one line broken, patched into
the simulator for one test only, so the package carries no mutant option.
Each sweep is simulator.sweep over one small scenario: every interleaving
explored and judged.  The real algorithm passes the same sweep, so a
rejection is the mutant's doing.

Three further mutants (no line-4 flag read, no line-22 swing, line 22
before line 21) survive every sweep tried so far; ROADMAP.md tracks them.
"""

from __future__ import annotations

import pytest

import multistack.simulator as simulator
from multistack.elements import EMPTY, Element
from multistack.history import OpName
from multistack.simulator import ExplorationTruncated, PlannedOp, Scenario

SEEDED = Element(1, 1)  # the prologue pushes it as op 1


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def pop_tas(top):
    """pop with the flag read and write in one slot, a test-and-set: two
    pops can no longer both read the flag as False."""
    while True:
        yield 16
        t = top.value
        yield 17
        if t is None:
            return EMPTY
        yield 20
        if not t.elim:
            t.elim = True
            yield 22
            top.compare_and_set(t, t.next)
            return t.element
        yield 25
        top.compare_and_set(t, t.next)


def push_nohelp(top, node):
    """push that does not swing the top past a deleted node (line 10)."""
    while True:
        yield 3
        t = top.value
        yield 4
        if t is None or not t.elim:
            yield 6
            node.next = t
            if top.compare_and_set(t, node):
                return True
        else:
            yield 10


def pop_noflagcheck(top):
    """pop that skips the flag read (line 20): it always flags the top it
    loaded and returns its element, deleted or not."""
    yield 16
    t = top.value
    yield 17
    if t is None:
        return EMPTY
    yield 21
    t.elim = True
    yield 22
    top.compare_and_set(t, t.next)
    return t.element


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def two_pops_over_one_node() -> Scenario:
    """Two threads pop once each over one seeded node."""
    return Scenario(
        initial_memory=((SEEDED, False),),
        programs=((PlannedOp(2, OpName.POP),), (PlannedOp(3, OpName.POP),)),
    )


def push_onto_a_deleted_top() -> Scenario:
    """One push onto a seeded node that is already deleted."""
    return Scenario(
        initial_memory=((SEEDED, True),),
        programs=((PlannedOp(3, OpName.PUSH, Element(2, 2)),),),
    )


def pops_around_a_push_and_pop() -> Scenario:
    """One 2x2 mix over one seeded node: thread 1 pops twice; thread 2
    pushes, then pops."""
    return Scenario(
        initial_memory=((SEEDED, False),),
        programs=(
            (PlannedOp(2, OpName.POP), PlannedOp(3, OpName.POP)),
            (PlannedOp(4, OpName.PUSH, Element(2, 2)), PlannedOp(5, OpName.POP)),
        ),
    )


# ---------------------------------------------------------------------------
# The real algorithm passes each sweep; each mutant fails its own
# ---------------------------------------------------------------------------


def test_two_pops_over_one_node_share_a_return():
    result = simulator.sweep([two_pops_over_one_node()])
    assert (result.runs, result.shared, result.rejected) == (70, 36, ())


def test_pop_tas_never_shares_a_return(monkeypatch):
    monkeypatch.setattr(simulator, "pop_steps", pop_tas)
    result = simulator.sweep([two_pops_over_one_node()])
    assert (result.runs, result.shared, result.rejected) == (26, 0, ())


def test_a_push_onto_a_deleted_top_helps_and_lands():
    result = simulator.sweep([push_onto_a_deleted_top()])
    assert (result.runs, result.shared, result.rejected) == (1, 0, ())


def test_push_nohelp_never_lands_on_a_deleted_top(monkeypatch):
    monkeypatch.setattr(simulator, "push_steps", push_nohelp)
    with pytest.raises(ExplorationTruncated):
        simulator.sweep([push_onto_a_deleted_top()])


def test_pops_around_a_push_and_pop_are_set_linearizable():
    result = simulator.sweep([pops_around_a_push_and_pop()])
    assert (result.runs, result.rejected) == (8722, ())


def test_pop_noflagcheck_pops_one_element_twice_in_sequence(monkeypatch):
    monkeypatch.setattr(simulator, "pop_steps", pop_noflagcheck)
    result = simulator.sweep([pops_around_a_push_and_pop()])
    assert (result.runs, len(result.rejected)) == (902, 33)
    refutations = [refutation for _, refutation in result.rejected]
    assert "ops 2 and 5 both popped id #1 but do not overlap in real time" in refutations
