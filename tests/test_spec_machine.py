"""The set-sequential model, pinned by examples and cross-checked against
an independent list model under hypothesis-generated operation sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from multistack.elements import Element
from multistack.spec_machine import (
    ClassKind,
    ConcurrencyClass,
    EMPTY_STATE,
    ReplayVerdict,
    TransitionError,
    apply_class,
    replay,
)

PUSH, POP_EMPTY, POP_GROUP = ClassKind


def elems(*pairs):
    return tuple(Element(value, push_id) for value, push_id in pairs)


E13 = Element(13, 4)
STATE_17_7_13 = elems((17, 1), (7, 3), (13, 4))


def test_push_on_empty():
    assert apply_class(EMPTY_STATE, ConcurrencyClass(PUSH, (9,), E13)) == (E13,)


def test_push_appends_at_top():
    state = elems((17, 1), (11, 2))
    state = apply_class(state, ConcurrencyClass(PUSH, (1,), Element(8, 3)))
    assert [e.value for e in state] == [17, 11, 8]
    state = apply_class(state, ConcurrencyClass(PUSH, (2,), Element(12, 4)))
    assert [e.value for e in state] == [17, 11, 8, 12]


def test_duplicate_push_id_rejected():
    state = apply_class(EMPTY_STATE, ConcurrencyClass(PUSH, (1,), Element(1, 7)))
    with pytest.raises(TransitionError) as info:
        apply_class(state, ConcurrencyClass(PUSH, (2,), Element(2, 7)))
    assert str(info.value) == "push id 7 already on the stack"


def test_pop_class_all_members_share_the_top():
    state = apply_class(STATE_17_7_13, ConcurrencyClass(POP_GROUP, (6, 7, 8), E13))
    assert state == elems((17, 1), (7, 3))


def test_pop_class_single_member_is_plain_pop():
    state = apply_class(STATE_17_7_13, ConcurrencyClass(POP_GROUP, (1,), E13))
    assert state == elems((17, 1), (7, 3))


def test_pop_class_sequence_two_then_one():
    state = elems((17, 1), (11, 2), (13, 4))
    state = apply_class(state, ConcurrencyClass(POP_GROUP, (1, 2), Element(13, 4)))
    state = apply_class(state, ConcurrencyClass(POP_GROUP, (3,), Element(11, 2)))
    assert state == elems((17, 1))


def test_pop_class_on_empty_is_invalid():
    with pytest.raises(TransitionError) as info:
        apply_class(EMPTY_STATE, ConcurrencyClass(POP_GROUP, (1,), E13))
    assert str(info.value) == "pop[1]->v:13#4 applied to the empty state"


def test_pop_empty_identity():
    state = apply_class(EMPTY_STATE, ConcurrencyClass(POP_EMPTY, (3,), None))
    assert state == EMPTY_STATE
    assert apply_class(state, ConcurrencyClass(POP_EMPTY, (4,), None)) == EMPTY_STATE


def test_pop_empty_on_nonempty_is_invalid():
    with pytest.raises(TransitionError) as info:
        apply_class(STATE_17_7_13, ConcurrencyClass(POP_EMPTY, (1,), None))
    assert str(info.value) == "empty-pop applied to a non-empty state"


def test_apply_class_checks_the_claimed_return():
    wrong = ConcurrencyClass(POP_GROUP, (5,), Element(7, 3))
    with pytest.raises(TransitionError) as info:
        apply_class(STATE_17_7_13, wrong)
    assert str(info.value) == (
        "pop[5]->v:7#3 but the top of (v:17#1, v:7#3, v:13#4) is v:13#4"
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_accepts_shared_pops():
    e = Element(1, 1)
    verdict = replay([ConcurrencyClass(PUSH, (1,), e), ConcurrencyClass(POP_GROUP, (2, 3), e)])
    assert verdict.accepted
    assert verdict.final_state == EMPTY_STATE


def test_replay_rejects_popping_what_was_never_on_top():
    verdict = replay(
        [
            ConcurrencyClass(PUSH, (1,), Element(1, 1)),
            ConcurrencyClass(POP_GROUP, (2,), Element(2, 2)),
        ]
    )
    assert not verdict.accepted
    assert verdict.failed_index == 1
    assert verdict.reason


def test_replay_rejects_pop_class_on_empty():
    verdict = replay([ConcurrencyClass(POP_GROUP, (1,), Element(1, 1))])
    assert not verdict.accepted and verdict.failed_index == 0


def test_replay_rejects_pop_empty_on_nonempty():
    verdict = replay(
        [ConcurrencyClass(PUSH, (1,), Element(1, 1)), ConcurrencyClass(POP_EMPTY, (2,), None)]
    )
    assert not verdict.accepted and verdict.failed_index == 1


def test_replay_empty_sequence_accepted():
    verdict = replay([])
    assert verdict.accepted and verdict.final_state == EMPTY_STATE


def test_replay_rejects_a_push_id_repeated_beneath_others():
    first, second, third = elems((1, 7), (2, 8), (3, 9))
    again = Element(4, 7)  # push id 7 is two elements down by now
    verdict = replay(
        [
            ConcurrencyClass(PUSH, (op_id,), element)
            for op_id, element in enumerate((first, second, third, again), 1)
        ]
    )
    assert not verdict.accepted and verdict.failed_index == 3
    assert verdict.reason == "push id 7 already on the stack"
    with pytest.raises(TransitionError) as info:
        apply_class((first, second, third), ConcurrencyClass(PUSH, (4,), again))
    assert str(info.value) == verdict.reason
    # Once popped, the id is free again.
    verdict = replay(
        [
            ConcurrencyClass(PUSH, (1,), first),
            ConcurrencyClass(POP_GROUP, (2,), first),
            ConcurrencyClass(PUSH, (3,), again),
        ]
    )
    assert verdict.accepted and verdict.final_state == (again,)


def apply_each(classes):
    """replay as a plain fold of apply_class: the model, one class at a time."""
    state = EMPTY_STATE
    for index, cls in enumerate(classes):
        try:
            state = apply_class(state, cls)
        except TransitionError as exc:
            return ReplayVerdict(False, failed_index=index, reason=str(exc))
    return ReplayVerdict(True, final_state=state)


any_element = st.builds(Element, st.integers(1, 2), st.integers(1, 4))
any_class = st.one_of(
    st.builds(ConcurrencyClass, st.just(PUSH), st.tuples(st.integers(1, 9)), any_element),
    st.builds(ConcurrencyClass, st.just(POP_EMPTY), st.tuples(st.integers(1, 9)), st.none()),
    st.builds(
        ConcurrencyClass,
        st.just(POP_GROUP),
        st.sets(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
        any_element,
    ),
)


@given(st.lists(any_class, max_size=12))
def test_replay_is_the_fold_of_apply_class(classes):
    # Repeated push ids, wrong tops and empty pops on a non-empty stack
    # included: the same verdict, index, reason and state.
    assert replay(classes) == apply_each(classes)


# ---------------------------------------------------------------------------
# Properties against an independent list model
# ---------------------------------------------------------------------------

op_codes = st.lists(
    st.tuples(st.sampled_from(["push", "pop"]), st.integers(1, 3)), max_size=30
)


def interpret(codes):
    """Build a valid class sequence from free-form codes, tracking the
    expected stack in a plain list alongside: each pop class claims the
    list's top as its members' shared return."""
    classes = []
    model = []
    op_id = 0
    push_id = 0
    for kind, k in codes:
        if kind == "push":
            push_id += 1
            op_id += 1
            element = Element(push_id % 5, push_id)
            classes.append(ConcurrencyClass(PUSH, (op_id,), element))
            model.append(element)
        elif not model:
            op_id += 1
            classes.append(ConcurrencyClass(POP_EMPTY, (op_id,), None))
        else:
            ids = tuple(range(op_id + 1, op_id + 1 + k))
            op_id += k
            classes.append(ConcurrencyClass(POP_GROUP, ids, model.pop()))
    return classes, model


@given(op_codes)
def test_replay_matches_list_model(codes):
    classes, model = interpret(codes)
    verdict = replay(classes)
    assert verdict.accepted
    assert list(verdict.final_state) == model


@given(op_codes)
def test_conservation(codes):
    classes, _ = interpret(codes)
    verdict = replay(classes)
    pushed = {c.element.push_id for c in classes if c.kind is ClassKind.PUSH}
    popped = {c.element.push_id for c in classes if c.kind is ClassKind.POP_GROUP}
    remaining = {e.push_id for e in verdict.final_state}
    assert popped | remaining == pushed
    assert not popped & remaining


@given(op_codes)
def test_replay_is_deterministic(codes):
    classes, _ = interpret(codes)
    assert replay(classes) == replay(classes)


@given(op_codes)
def test_singleton_classes_are_the_plain_stack(codes):
    # With every pop class a singleton the model must behave like list
    # append/pop exactly.
    singles = [(kind, 1) for kind, _ in codes]
    classes, model = interpret(singles)
    assert all(len(cls.op_ids) == 1 for cls in classes)
    verdict = replay(classes)
    assert verdict.accepted
    assert list(verdict.final_state) == model
