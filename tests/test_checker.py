"""Forced grouping, both decision modes, witness soundness, and agreement
with the brute-force enumeration oracle."""

from __future__ import annotations

import importlib.util
import random
import re
from pathlib import Path

import pytest

from multistack import checker
from multistack.checker import (
    CheckOutcome,
    StructuralRefutation,
    check_linearizable,
    check_set_linearizable,
    format_witness,
    group_classes,
    write_witness,
)
from multistack.harness import RunConfig, run_stress
from multistack.elements import EMPTY, Element
from multistack.history import (
    History,
    complete_operations,
    operations,
    read_history,
)
from multistack.spec_machine import (
    ClassKind,
    apply_class,
    pop_empty_class,
    pop_group_class,
    push_class,
    replay,
)
from naive_oracle import (
    linearizable_by_enumeration,
    set_linearizable_by_enumeration,
)
from support import build_history, random_history, sequential_history

E17 = Element(17, 1)
E11 = Element(11, 2)
E7 = Element(7, 3)
E13 = Element(13, 4)
E5 = Element(5, 1)


def triple_shared_pop_history() -> History:
    """Sequential setup pushes, then three overlapping pops that all return
    the same element."""
    script = []
    for op_id, element in ((1, E17), (2, E11), (3, E7), (4, E13)):
        script.append(("inv", 1, op_id, "push", element))
        script.append(("res", 1, op_id, True))
    script += [
        ("inv", 1, 5, "pop"),
        ("inv", 2, 6, "pop"),
        ("inv", 3, 7, "pop"),
        ("res", 1, 5, E13),
        ("res", 2, 6, E13),
        ("res", 3, 7, E13),
    ]
    return build_history(script)


def late_helper_history() -> History:
    script = []
    for op_id, element in ((1, E17), (2, E11), (3, E7)):
        script.append(("inv", 1, op_id, "push", element))
        script.append(("res", 1, op_id, True))
    script += [("inv", 1, 4, "pop"), ("res", 1, 4, E7)]
    script += [("inv", 1, 5, "push", E13), ("res", 1, 5, True)]
    script += [
        ("inv", 1, 6, "pop"),
        ("inv", 2, 7, "pop"),
        ("inv", 3, 8, "pop"),
        ("res", 1, 6, E13),
        ("res", 2, 7, E13),
        ("res", 3, 8, E11),
    ]
    return build_history(script)


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def test_grouping_collects_shared_returns_into_one_class():
    classes = group_classes(complete_operations(triple_shared_pop_history()))
    pop_groups = [c for c in classes if c.kind is ClassKind.POP_GROUP]
    assert len(pop_groups) == 1
    assert pop_groups[0].op_ids == (5, 6, 7)
    assert pop_groups[0].element == E13


def test_grouping_rejects_sequential_shared_returns():
    history = sequential_history(
        ("push", 1, E17), ("pop", 2, E17), ("pop", 3, E17)
    )
    with pytest.raises(StructuralRefutation) as info:
        group_classes(complete_operations(history))
    assert "overlap" in str(info.value)
    assert "2" in str(info.value) and "3" in str(info.value)


def test_grouping_rejects_popping_the_unpushed():
    history = sequential_history(("push", 1, E17), ("pop", 2, Element(9, 50)))
    with pytest.raises(StructuralRefutation) as info:
        group_classes(complete_operations(history))
    assert "no push" in str(info.value)


def test_grouping_rejects_duplicate_push_ids():
    history = sequential_history(("push", 1, E17), ("push", 2, Element(3, 1)))
    with pytest.raises(StructuralRefutation):
        group_classes(complete_operations(history))


def test_grouping_rejects_value_disagreeing_with_push():
    history = sequential_history(("push", 1, E17), ("pop", 2, Element(99, 1)))
    with pytest.raises(StructuralRefutation):
        group_classes(complete_operations(history))


def test_grouping_requires_complete_records():
    history = build_history([("inv", 1, 1, "pop")])
    with pytest.raises(ValueError):
        group_classes(operations(history))


# ---------------------------------------------------------------------------
# Set-linearizability
# ---------------------------------------------------------------------------


def test_accepts_shared_pops_and_groups_them():
    verdict = check_set_linearizable(triple_shared_pop_history())
    assert verdict.accepted
    assert verdict.witness is not None
    last = verdict.witness[-1]
    assert last.kind is ClassKind.POP_GROUP and last.op_ids == (5, 6, 7)


def test_late_helper_witness_orders_the_pop_classes():
    verdict = check_set_linearizable(late_helper_history())
    assert verdict.accepted
    tail = verdict.witness[-2:]
    assert tail[0].op_ids == (6, 7) and tail[0].element == E13
    assert tail[1].op_ids == (8,) and tail[1].element == E11


def test_rejects_shared_return_with_an_element_in_between():
    # Both pops of 17 overlap, but a completed pop of 11 separates them from
    # any state where 17 is on top together.
    script = [
        ("inv", 1, 1, "push", E17),
        ("res", 1, 1, True),
        ("inv", 1, 2, "pop"),
        ("inv", 2, 3, "pop"),
        ("res", 1, 2, E17),
        ("res", 2, 3, Element(11, 50)),
    ]
    verdict = check_set_linearizable(build_history(script))
    assert verdict.outcome is CheckOutcome.REJECTED
    assert "no push" in verdict.refutation


def test_empty_history_is_accepted():
    verdict = check_set_linearizable(History(()))
    assert verdict.accepted and verdict.witness == ()


def test_pop_empty_orders_before_a_concurrent_push():
    script = [
        ("inv", 1, 1, "pop"),
        ("inv", 2, 2, "push", E17),
        ("res", 1, 1, EMPTY),
        ("res", 2, 2, True),
    ]
    verdict = check_set_linearizable(build_history(script))
    assert verdict.accepted
    assert [c.kind for c in verdict.witness] == [ClassKind.POP_EMPTY, ClassKind.PUSH]


def test_pending_operations_are_dropped():
    script = [
        ("inv", 1, 1, "push", E17),
        ("res", 1, 1, True),
        ("inv", 1, 2, "pop"),
        ("res", 1, 2, E17),
        ("inv", 2, 3, "pop"),  # never responds
    ]
    verdict = check_set_linearizable(build_history(script))
    assert verdict.accepted
    assert sorted(op for c in verdict.witness for op in c.op_ids) == [1, 2]


def test_size_cap_yields_undecided():
    history = sequential_history(
        *[("push", i, Element(1, i)) for i in range(1, 18)]
    )
    verdict = check_set_linearizable(history)
    assert verdict.outcome is CheckOutcome.UNDECIDED
    assert "cap" in verdict.refutation
    assert check_set_linearizable(history, max_ops=20).accepted


def test_search_refutation_names_the_blocker():
    history = sequential_history(
        ("push", 1, E17), ("push", 2, E11), ("pop", 3, E17)
    )
    verdict = check_set_linearizable(history)
    assert verdict.outcome is CheckOutcome.REJECTED
    assert "top" in verdict.refutation


@pytest.mark.parametrize(
    "ops, blocker",
    [
        (
            (("pop", 1, E17), ("push", 2, E17)),
            "placed 0 of 2; then: pop[1]->v:17#1 applied to the empty state",
        ),
        (
            (("push", 1, E17), ("push", 2, E11), ("pop", 3, E17)),
            "placed 2 of 3; then: pop[3]->v:17#1 but the top of (v:17#1, v:11#2) "
            "is v:11#2",
        ),
        (
            (("push", 1, E17), ("pop", 2, EMPTY)),
            "placed 1 of 2; then: empty-pop applied to a non-empty state",
        ),
    ],
)
def test_refused_transitions_are_worded_by_the_model(ops, blocker):
    history = sequential_history(*ops)
    for check in (check_set_linearizable, check_linearizable):
        verdict = check(history)
        assert verdict.outcome is CheckOutcome.REJECTED
        assert verdict.refutation == (
            f"no precedence-respecting order of the {len(ops)} classes replays as "
            f"a stack (best attempt {blocker})"
        )


def test_refutation_words_every_refusal_of_the_first_deepest_attempt():
    # The concurrent pushes reach depth 3 in two orders; the refusals are
    # those of the first, (17, 11, 7), though the search ends in the other.
    history = build_history(
        [
            ("inv", 1, 1, "push", E17),
            ("inv", 2, 2, "push", E11),
            ("res", 1, 1, True),
            ("res", 2, 2, True),
            ("inv", 1, 3, "push", E7),
            ("res", 1, 3, True),
            ("inv", 1, 4, "pop"),
            ("inv", 2, 5, "pop"),
            ("res", 1, 4, E17),
            ("res", 2, 5, EMPTY),
        ]
    )
    for check in (check_set_linearizable, check_linearizable):
        assert check(history).refutation == (
            "no precedence-respecting order of the 5 classes replays as a stack "
            "(best attempt placed 3 of 5; then: pop[4]->v:17#1 but the top of "
            "(v:17#1, v:11#2, v:7#3) is v:7#3; empty-pop applied to a non-empty state)"
        )


def test_an_accepted_check_words_no_refusal(monkeypatch):
    # Pushes 1 and 2 overlap, and the search places 1 first, so popping
    # v:17#1 is refused before the order 2, 1 is found.
    history = build_history(
        [
            ("inv", 1, 1, "push", E17),
            ("inv", 2, 2, "push", E11),
            ("res", 1, 1, True),
            ("res", 2, 2, True),
            ("inv", 1, 3, "pop"),
            ("res", 1, 3, E17),
            ("inv", 1, 4, "pop"),
            ("res", 1, 4, E11),
        ]
    )
    worded = []

    def counting_apply_class(state, cls):
        worded.append(cls)
        return apply_class(state, cls)

    monkeypatch.setattr(checker, "apply_class", counting_apply_class)
    for check in (check_set_linearizable, check_linearizable):
        verdict = check(history)
        assert verdict.accepted
        assert [cls.op_ids for cls in verdict.witness] == [(2,), (1,), (3,), (4,)]
    assert worded == []


def test_a_pop_open_across_thousands_of_operations_shares_a_return():
    # Process 1's pop stays in the ready window while 4,000 push/pop pairs
    # are placed, then shares pair 2,000's element with that pair's pop.
    script = [("inv", 1, 1, "pop")]
    for i in range(4000):
        element = Element(i % 100, i + 1)
        script += [
            ("inv", 2, 2 * i + 2, "push", element),
            ("res", 2, 2 * i + 2, True),
            ("inv", 2, 2 * i + 3, "pop"),
            ("res", 2, 2 * i + 3, element),
        ]
    script.append(("res", 1, 1, Element(0, 2001)))
    history = build_history(script)
    verdict = check_set_linearizable(history, max_ops=8001)
    assert verdict.accepted
    assert verdict.witness[4001].op_ids == (1, 4003)
    assert check_linearizable(history, max_ops=8001).refutation == (
        "no precedence-respecting order of the 8001 classes replays as a stack "
        "(best attempt placed 8000 of 8001; then: pop[1]->v:0#2001 applied to "
        "the empty state)"
    )


# ---------------------------------------------------------------------------
# Linearizability mode
# ---------------------------------------------------------------------------


def test_lin_rejects_what_grouping_saves():
    history = triple_shared_pop_history()
    assert check_set_linearizable(history).accepted
    assert check_linearizable(history).outcome is CheckOutcome.REJECTED


def test_lin_accepts_sequential_runs():
    history = sequential_history(
        ("push", 1, E17), ("push", 2, E11), ("pop", 3, E11), ("pop", 4, E17),
        ("pop", 5, EMPTY),
    )
    verdict = check_linearizable(history)
    assert verdict.accepted
    assert [c.op_ids for c in verdict.witness] == [(1,), (2,), (3,), (4,), (5,)]


def test_lin_accepted_implies_setlin_accepted():
    rng = random.Random(33)
    checked = 0
    for _ in range(200):
        history = random_history(rng)
        if check_linearizable(history).accepted:
            checked += 1
            assert check_set_linearizable(history).accepted
    assert checked > 20  # the generator really does produce accepted runs


def test_both_modes_reject_a_reused_push_id():
    # A plain stack replays this, but no run mints push id #1 twice.
    five = Element(5, 1)
    history = sequential_history(
        ("push", 1, five), ("pop", 2, five), ("push", 3, five), ("pop", 4, five)
    )
    for check in (check_linearizable, check_set_linearizable):
        verdict = check(history)
        assert verdict.outcome is CheckOutcome.REJECTED
        assert verdict.refutation == "ops 1 and 3 both pushed id #1"
    assert not linearizable_by_enumeration(history)
    assert not set_linearizable_by_enumeration(history)


# ---------------------------------------------------------------------------
# Witness soundness and monotonicity
# ---------------------------------------------------------------------------


def without_ops(history: History, op_ids: set[int]) -> History:
    return History(tuple(e for e in history.events if e.op_id not in op_ids))


def test_witnesses_replay_and_respect_precedence():
    rng = random.Random(77)
    histories = [random_history(rng) for _ in range(150)]
    # Recorded runs of 256 and 1024 ops: witnesses far longer than the
    # random histories, where the search's ready window does the work.
    stress = [
        run_stress(RunConfig(threads=2, ops_per_thread=ops, seed=seed)).history
        for ops, seed in ((128, 1), (128, 2), (512, 3))
    ]
    accepted = 0
    for index, history in enumerate(histories + stress):
        verdict = check_set_linearizable(history, max_ops=1024)
        if not verdict.accepted:
            assert index < len(histories), "a recorded stress run was rejected"
            continue
        accepted += 1
        assert replay(verdict.witness).accepted
        records = {r.op_id: r for r in complete_operations(history)}
        order = verdict.witness
        for i, first in enumerate(order):
            for second in order[i + 1 :]:
                assert not any(
                    records[a].responded_at < records[b].invoked_at
                    for a in second.op_ids
                    for b in first.op_ids
                )
    assert accepted > 30


@pytest.mark.parametrize(
    "result, witness, message",
    [
        (
            E5,
            (pop_group_class([2], E5), push_class(1, E5)),
            "witness does not replay: pop[2]->v:5#1 applied to the empty state",
        ),
        (E5, (push_class(1, E5),), "witness does not cover the operations exactly once"),
        (
            EMPTY,
            (pop_empty_class(2), push_class(1, E5)),
            "witness order contradicts real-time precedence",
        ),
    ],
)
def test_the_witness_check_refuses_a_bad_witness(result, witness, message):
    records = complete_operations(sequential_history(("push", 1, E5), ("pop", 2, result)))
    with pytest.raises(AssertionError, match=re.escape(message)):
        checker._verify_witness(witness, records)


def test_acceptance_is_monotone_under_removing_the_last_class():
    rng = random.Random(123)
    exercised = 0
    for _ in range(120):
        history = random_history(rng)
        verdict = check_set_linearizable(history)
        if not verdict.accepted or not verdict.witness:
            continue
        exercised += 1
        shrunk = without_ops(history, set(verdict.witness[-1].op_ids))
        assert check_set_linearizable(shrunk).accepted
    assert exercised > 30


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


def test_agreement_with_enumeration_oracle():
    rng = random.Random(9000)
    for _ in range(300):
        history = random_history(rng)
        verdict = check_set_linearizable(history)
        assert verdict.outcome is not CheckOutcome.UNDECIDED
        assert verdict.accepted == set_linearizable_by_enumeration(history)


def test_lin_agreement_with_enumeration_oracle():
    rng = random.Random(9001)
    for _ in range(200):
        history = random_history(rng)
        verdict = check_linearizable(history)
        assert verdict.outcome is not CheckOutcome.UNDECIDED
        assert verdict.accepted == linearizable_by_enumeration(history)


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


def test_witness_format(tmp_path):
    verdict = check_set_linearizable(triple_shared_pop_history())
    text = format_witness(verdict.witness)
    lines = text.splitlines()
    assert lines[0] == "CLASS 1: 1 -> true"
    assert lines[-1] == "CLASS 5: 5,6,7 -> v:13#4"
    path = tmp_path / "w.txt"
    write_witness(verdict.witness, path)
    assert path.read_text(encoding="utf-8") == text


# ---------------------------------------------------------------------------
# Tools
# ---------------------------------------------------------------------------


def test_bench_checker_writes_a_decidable_long_open_pop_history(tmp_path):
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    bench_checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_checker)
    history_path = tmp_path / "long-open-pop.history"
    bench_checker.write_long_open_pop(history_path, 64)
    history = read_history(history_path)
    verdict = check_set_linearizable(history, max_ops=64)
    assert verdict.accepted
    assert [len(c.op_ids) for c in verdict.witness if len(c.op_ids) > 1] == [2]
    assert check_linearizable(history, max_ops=64).outcome is CheckOutcome.REJECTED
