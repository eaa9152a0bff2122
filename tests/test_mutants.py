"""Broken variants of the algorithm, and the small scenarios whose sweeps
reject them.

Each mutant is push_step or pop_step with one line broken, every other
line handed to the real one, patched into the simulator for one test
only, so the package carries no mutant option.
Each sweep is simulator.sweep over one small scenario: every interleaving
explored and judged.  The real algorithm passes the same sweep, so a
rejection is the mutant's doing.

Three further mutants (no line-4 flag read, no line-22 swing, line 22
before line 21) survive every sweep tried so far; ROADMAP.md tracks them.

sweep counts runs on the configuration walk, taking each edge's slot once;
the last tests hold it equal to the enumerating sweep of tests/support.py,
here and on small families, broken or not.
"""

from __future__ import annotations

import pytest

import multistack.simulator as simulator
from multistack.relaxed_stack import DONE, pop_step, push_step
from multistack.simulator import (
    ExplorationTruncated,
    Run,
    Scenario,
    SimulationInvariantError,
    all_program_mixes,
    plan,
)
from support import enumerated_sweep
from test_cli import pop_without_removing


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def pop_tas(top, node, line, t):
    """pop with the flag read and write in one slot, a test-and-set: two
    pops can no longer both read the flag as False."""
    if line == 20 and not t.elim:
        t.elim = True
        return 22, t
    return pop_step(top, node, line, t)


def push_nohelp(top, node, line, t):
    """push that does not swing the top past a deleted node (line 10)."""
    if line == 10:
        return 3, t
    return push_step(top, node, line, t)


def pop_noflagcheck(top, node, line, t):
    """pop that skips the flag read (line 20): it always flags the top it
    loaded and returns its element, deleted or not: line 17 goes on to 21."""
    line, t = pop_step(top, node, line, t)
    return (21 if line == 20 else line), t


def pop_relink(top, node, line, t):
    """pop that clears the next link of the node it flags (after line 21),
    rewriting a published link: the swing at 22 then drops the rest."""
    step = pop_step(top, node, line, t)
    if line == 21:
        t.next = None
    return step


def pop_skip(top, node, line, t):
    """pop whose swing at 22 moves the top two nodes down, past a node
    nobody deleted (to empty from the bottom node)."""
    if line == 22:
        top.compare_and_set(t, t.next and t.next.next)
        return DONE, t.element
    return pop_step(top, node, line, t)


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
    monkeypatch.setattr(simulator, "pop_step", pop_tas)
    result = simulator.sweep([two_pops_over_one_node()])
    assert (result.runs, result.shared, result.rejected) == (26, 0, ())


def test_a_push_onto_a_deleted_top_helps_and_lands():
    result = simulator.sweep([push_onto_a_deleted_top()])
    assert (result.runs, result.shared, result.rejected) == (1, 0, ())


def test_push_nohelp_never_lands_on_a_deleted_top(monkeypatch):
    monkeypatch.setattr(simulator, "push_step", push_nohelp)
    with pytest.raises(ExplorationTruncated, match=r"\(1, 1, 1, 1\)"):
        simulator.sweep([push_onto_a_deleted_top()])


def test_pops_around_a_push_and_pop_are_set_linearizable():
    result = simulator.sweep([pops_around_a_push_and_pop()])
    assert (result.runs, result.rejected) == (8722, ())


def test_pop_noflagcheck_pops_one_element_twice_in_sequence(monkeypatch):
    monkeypatch.setattr(simulator, "pop_step", pop_noflagcheck)
    result = simulator.sweep([pops_around_a_push_and_pop()])
    assert (result.runs, len(result.rejected)) == (902, 33)
    refutations = [refutation for _, refutation in result.rejected]
    assert "ops 2 and 5 both popped id #1 but do not overlap in real time" in refutations


def test_two_pops_over_two_nodes_keep_the_chain():
    result = simulator.sweep([two_pops_over_two_nodes()])
    assert (result.runs, result.shared, result.rejected) == (94, 36, ())


@pytest.mark.parametrize("mutant", [pop_relink, pop_skip])
def test_pop_breaking_the_chain_raises_at_its_slot(monkeypatch, mutant):
    monkeypatch.setattr(simulator, "pop_step", mutant)
    with pytest.raises(SimulationInvariantError):
        simulator.sweep([two_pops_over_two_nodes()])
    # Thread 1's first four slots break the chain either way; a replayed
    # prefix is checked like newly taken slots.
    with pytest.raises(SimulationInvariantError):
        Run(two_pops_over_two_nodes(), (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# The counting sweep equals the enumerating one
# ---------------------------------------------------------------------------


def sweep_outcome(sweep, scenarios):
    """What sweep returns over the scenarios, or the type of what it raises."""
    try:
        return sweep(scenarios)
    except (ExplorationTruncated, SimulationInvariantError) as error:
        return type(error)


MUTANTS = {
    "real": ("pop_step", pop_step),
    "pop_tas": ("pop_step", pop_tas),
    "push_nohelp": ("push_step", push_nohelp),
    "pop_noflagcheck": ("pop_step", pop_noflagcheck),
    "pop_relink": ("pop_step", pop_relink),
    "pop_skip": ("pop_step", pop_skip),
}


SCENARIOS = [
    two_pops_over_one_node,
    push_onto_a_deleted_top,
    two_pops_over_two_nodes,
    pops_around_a_push_and_pop,
]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_counting_equals_enumerating_on_every_scenario(monkeypatch, mutant, scenario):
    monkeypatch.setattr(simulator, *MUTANTS[mutant])
    scenarios = [scenario()]
    assert sweep_outcome(simulator.sweep, scenarios) == sweep_outcome(enumerated_sweep, scenarios)


@pytest.mark.parametrize(
    "family, pop",
    [
        ((2, 1), pop_step),
        ((3, 1), pop_step),
        ((1, 3), pop_without_removing),
        ((1, 5), pop_without_removing),
    ],
)
def test_counting_equals_enumerating_on_a_family(monkeypatch, family, pop):
    monkeypatch.setattr(simulator, "pop_step", pop)
    scenarios = [Scenario(programs=programs) for programs in all_program_mixes(*family)]
    result = simulator.sweep(scenarios)
    assert result == enumerated_sweep(scenarios)
    assert bool(result.rejected) == (pop is pop_without_removing)
