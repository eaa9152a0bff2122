"""Forced grouping, both decision modes, witness soundness, and agreement
with the brute-force enumeration oracle."""

from __future__ import annotations

import hashlib
import importlib.util
import random
import re
from pathlib import Path

import pytest

from multistack import checker
from multistack.checker import (
    CheckOutcome,
    StructuralRefutation,
    Verdict,
    check_linearizable,
    check_set_linearizable,
    format_witness,
    group_classes,
    write_witness,
)
from multistack.harness import RunConfig, run_stress
from multistack.elements import EMPTY, Element
from multistack.history import (
    Event,
    EventKind,
    History,
    OperationRecord,
    complete_operations,
    history_shares_return,
    operations,
    read_history,
)
from multistack.simulator import explore, plan
from multistack.spec_machine import (
    ClassKind,
    ConcurrencyClass,
    ReplayVerdict,
    apply_class,
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
    rows = group_classes(complete_operations(triple_shared_pop_history()))
    pop_groups = [row for row in rows if row[-1].kind is ClassKind.POP_GROUP]
    assert len(pop_groups) == 1
    first_inv, last_inv, first_res, group = pop_groups[0]
    assert group.op_ids == (5, 6, 7)
    assert group.element == E13
    # The four pushes take events 0-7; the pops are invoked at 8, 9 and 10
    # and respond at 11, 12 and 13.
    assert (first_inv, last_inv, first_res) == (8, 10, 11)


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


def test_grouping_names_the_first_fault_in_a_fixed_order():
    # Every fault at once, each placed so that raising on sight in record
    # order would name a later kind first: a pending record, then bad result
    # shapes in record order, then a duplicate push id, then pops of an
    # unpushed or mismatched id in record order, then same-id pops that do
    # not overlap.  Dropping the op named each time exposes the next fault.
    script = [
        ("inv", 1, 1, "pop"),
        ("res", 1, 1, Element(9, 50)),  # nobody pushes id 50
        ("inv", 1, 2, "push", E17),
        ("res", 1, 2, True),
        ("inv", 1, 3, "pop"),
        ("res", 1, 3, Element(99, 1)),  # op 2 pushed 17 as id 1
        ("inv", 1, 4, "push", Element(3, 1)),  # op 2 pushed id 1 already
        ("res", 1, 4, True),
        ("inv", 1, 5, "push", E11),
        ("res", 1, 5, True),
        ("inv", 1, 6, "pop"),
        ("res", 1, 6, E11),
        ("inv", 1, 7, "pop"),
        ("res", 1, 7, E11),  # op 6 popped id 2 before op 7 began
        ("inv", 1, 8, "push", E7),
        ("res", 1, 8, EMPTY),
        ("inv", 1, 9, "pop"),
        ("res", 1, 9, True),
        ("inv", 2, 10, "pop"),  # never responds
    ]
    steps = [
        (10, ValueError, "grouping expects pending operations to be dropped first"),
        (8, StructuralRefutation, "push op 8 returned empty instead of true"),
        (9, StructuralRefutation, "pop op 9 returned neither an element nor empty"),
        (4, StructuralRefutation, "ops 2 and 4 both pushed id #1"),
        (1, StructuralRefutation, "op 1 popped v:9#50 but no push produced id #50"),
        (3, StructuralRefutation, "op 3 popped v:99#1 but op 2 pushed v:17#1"),
        (
            7,
            StructuralRefutation,
            "ops 6 and 7 both popped id #2 but do not overlap in real time",
        ),
    ]
    records = operations(build_history(script))
    for op_id, error, message in steps:
        with pytest.raises(error) as info:
            group_classes(records)
        assert (type(info.value), str(info.value)) == (error, message)
        records = [r for r in records if r.op_id != op_id]
    assert [row[-1].op_ids for row in group_classes(records)] == [(2,), (5,), (6,)]


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
        "ops 1 and 4003 both popped id #2001; a plain stack returns each element once"
    )


# ---------------------------------------------------------------------------
# Linearizability mode
# ---------------------------------------------------------------------------


def test_lin_rejects_what_grouping_saves():
    history = triple_shared_pop_history()
    assert check_set_linearizable(history).accepted
    assert check_linearizable(history).outcome is CheckOutcome.REJECTED


def test_lin_refuses_the_first_shared_class_without_a_search(monkeypatch):
    # Two shared classes.  Grouping lists pop classes by push id, so the
    # later pair, which popped id #1, is the one named.
    script = [("inv", 1, 1, "push", E17), ("res", 1, 1, True)]
    script += [("inv", 1, 2, "push", E11), ("res", 1, 2, True)]
    script += [("inv", 1, 3, "pop"), ("inv", 2, 4, "pop"), ("res", 1, 3, E11), ("res", 2, 4, E11)]
    script += [("inv", 1, 5, "pop"), ("inv", 2, 6, "pop"), ("res", 2, 6, E17), ("res", 1, 5, E17)]
    history = build_history(script)
    assert check_set_linearizable(history).accepted

    def no_search(rows):
        raise AssertionError("searched")

    monkeypatch.setattr(checker, "_search", no_search)
    verdict = check_linearizable(history)
    assert verdict.outcome is CheckOutcome.REJECTED
    assert verdict.refutation == (
        "ops 5 and 6 both popped id #1; a plain stack returns each element once"
    )


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


def test_lin_is_setlin_without_a_shared_return():
    # Without a shared return every class is a singleton, so both checks
    # search the same rows; with one, the strict check refuses.
    rng = random.Random(2027)
    for _ in range(2000):
        history = random_history(rng)
        strict, relaxed = check_linearizable(history), check_set_linearizable(history)
        assert strict.accepted == (relaxed.accepted and not history_shares_return(history))
        if strict.accepted:
            assert strict.witness == relaxed.witness


@pytest.mark.parametrize(
    "memory, ops",
    [
        ([(1, False)], [(1, None), (2, None)]),
        ([(1, False), (2, False)], [(1, None), (2, None)]),
        ([(1, False)], [(1, None), (2, None), (2, 3)]),
    ],
)
def test_the_oracle_confirms_every_explored_shared_return(memory, ops):
    # Every schedule of two threads over seeded memory: the brute-force
    # oracle refuses each distinct history with a shared return as a plain
    # stack and accepts it as a set-linearizable one.
    histories = {
        tuple(e for e in run.history.events if e.kind is not EventKind.STEP)
        for run in explore(plan(memory, ops))
    }
    shared = [History(events) for events in histories if history_shares_return(History(events))]
    assert shared
    for history in shared:
        assert not linearizable_by_enumeration(history)
        assert set_linearizable_by_enumeration(history)


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
            (
                ConcurrencyClass(ClassKind.POP_GROUP, (2,), E5),
                ConcurrencyClass(ClassKind.PUSH, (1,), E5),
            ),
            "witness does not replay: pop[2]->v:5#1 applied to the empty state",
        ),
        (
            E5,
            (ConcurrencyClass(ClassKind.PUSH, (1,), E5),),
            "witness does not cover the operations exactly once",
        ),
        (
            EMPTY,
            (
                ConcurrencyClass(ClassKind.POP_EMPTY, (2,), None),
                ConcurrencyClass(ClassKind.PUSH, (1,), E5),
            ),
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


def test_verdict_text_is_pinned_on_a_random_corpus():
    # 400 draws at each size, each checked in both modes: every outcome,
    # refutation and witness, in order, hashes to the digest below.
    rng = random.Random(2026)
    lines = []
    for max_ops in (4, 8, 12, 40):
        for _ in range(400):
            history = random_history(rng, max_ops)
            for check in (check_set_linearizable, check_linearizable):
                verdict = check(history, max_ops=1 << 20)
                witness = format_witness(verdict.witness) if verdict.witness else ""
                lines.append(f"{verdict.outcome.name}|{verdict.refutation}|{witness}")
    assert sum(line.startswith("ACCEPTED|") for line in lines) == 1939
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "ac84c633c09922565c314a136b9c805a420df248590533830e0eac19d6fba4d4"
    )


def test_a_judged_run_builds_no_tuple_through_python(monkeypatch):
    # The per-run path builds its named tuples at C speed (elements._new),
    # so none of these Python-level constructors runs while a 2x2 mix is
    # explored and every run is judged.
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built through its Python-level __new__")

    for cls in (Event, OperationRecord, ConcurrencyClass, Verdict, ReplayVerdict):
        monkeypatch.setattr(cls, "__new__", refuse)
    runs = shared = 0
    for run in explore(plan((), [(1, 1), (1, None), (2, None), (2, 2)])):
        runs += 1
        assert check_set_linearizable(run.history).accepted
        if history_shares_return(run.history):
            shared += 1
            assert not check_linearizable(run.history).accepted
    assert (runs, shared) == (2571, 126)


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


@pytest.fixture(scope="module")
def bench_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checker_writes_a_decidable_long_open_pop_history(bench_checker, tmp_path):
    history_path = tmp_path / "long-open-pop.history"
    bench_checker.write_long_open_pop(history_path, 64)
    history = read_history(history_path)
    verdict = check_set_linearizable(history, max_ops=64)
    assert verdict.accepted
    assert [len(c.op_ids) for c in verdict.witness if len(c.op_ids) > 1] == [2]
    assert check_linearizable(history, max_ops=64).outcome is CheckOutcome.REJECTED


def test_bench_checker_writes_the_same_simulated_rows_on_every_run(bench_checker, tmp_path):
    digests = []
    for ops in bench_checker.SIZES:
        path = tmp_path / f"{ops}.history"
        bench_checker.write_simulated(path, ops)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [  # INV/RES text of seeded_history(1, 2, ops // 2), ops 256 to 16,384
        "128e91ee40b5bbd4ddaca779ec581021843edc618ab0fdcdc3bdf3c34f345a58",
        "b1ca71a5da3e2e1e61537f04c23261f7d6f708ce09e79398a72cdab9cd9cb994",
        "a506683fbff6bca0c8c8f31c855c8a2efdd84aa2bbce1bd27bec0a41f7b85436",
        "f3eda126ce7aab94b3112acd7badce97c2bd9da4781386bdcae31a819ce8bb3f",
    ]
    assert check_set_linearizable(read_history(tmp_path / "256.history"), max_ops=256).accepted
