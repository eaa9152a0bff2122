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
from multistack.elements import EMPTY
from multistack.simulator import ExplorationTruncated, Run, Scenario, SimulationInvariantError, plan


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


def pop_relink(top):
    """pop that clears the next link of the node it flags (after line 21),
    rewriting a published link: the swing at 22 then drops the rest."""
    while True:
        yield 16
        t = top.value
        yield 17
        if t is None:
            return EMPTY
        yield 20
        if not t.elim:
            yield 21
            t.elim = True
            t.next = None
            yield 22
            top.compare_and_set(t, t.next)
            return t.element
        yield 25
        top.compare_and_set(t, t.next)


def pop_skip(top):
    """pop whose swing at 22 moves the top two nodes down, past a node
    nobody deleted (to empty from the bottom node)."""
    while True:
        yield 16
        t = top.value
        yield 17
        if t is None:
            return EMPTY
        yield 20
        if not t.elim:
            yield 21
            t.elim = True
            yield 22
            top.compare_and_set(t, t.next and t.next.next)
            return t.element
        yield 25
        top.compare_and_set(t, t.next)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def two_pops_over_one_node() -> Scenario:
    """Two threads pop once each over one seeded node."""
    return plan([(1, False)], [(1, None), (2, None)])


def push_onto_a_deleted_top() -> Scenario:
    """One push onto a seeded node that is already deleted."""
    return plan([(1, True)], [(1, 2)])


def two_pops_over_two_nodes() -> Scenario:
    """Two threads pop once each over two seeded nodes."""
    return plan([(1, False), (2, False)], [(1, None), (2, None)])


def pops_around_a_push_and_pop() -> Scenario:
    """One 2x2 mix over one seeded node: thread 1 pops twice; thread 2
    pushes, then pops.  The prologue's push of the seeded node is op 1;
    thread 1 runs ops 2 and 3, thread 2 ops 4 and 5."""
    return plan([(1, False)], [(1, None), (1, None), (2, 2), (2, None)])


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


def test_two_pops_over_two_nodes_keep_the_chain():
    result = simulator.sweep([two_pops_over_two_nodes()])
    assert (result.runs, result.shared, result.rejected) == (94, 36, ())


@pytest.mark.parametrize("mutant", [pop_relink, pop_skip])
def test_pop_breaking_the_chain_raises_at_its_slot(monkeypatch, mutant):
    monkeypatch.setattr(simulator, "pop_steps", mutant)
    with pytest.raises(SimulationInvariantError):
        simulator.sweep([two_pops_over_two_nodes()])
    # Thread 1's first four slots break the chain either way; a replayed
    # prefix is checked like newly taken slots.
    with pytest.raises(SimulationInvariantError):
        Run(two_pops_over_two_nodes(), (1, 1, 1, 1))
