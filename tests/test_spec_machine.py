"""The set-sequential model, pinned by examples and cross-checked against
an independent list model under hypothesis-generated operation sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from multistack.elements import EMPTY, Element
from multistack.spec_machine import (
    ClassKind,
    EMPTY_STATE,
    MalformedClassError,
    ReplayVerdict,
    TransitionError,
    apply_class,
    apply_pop_class,
    apply_pop_empty,
    apply_push,
    pop_empty_class,
    pop_group_class,
    push_class,
    replay,
)


def elems(*pairs):
    return tuple(Element(value, push_id) for value, push_id in pairs)


E13 = Element(13, 4)
STATE_17_7_13 = elems((17, 1), (7, 3), (13, 4))


def test_push_on_empty():
    state, response = apply_push(EMPTY_STATE, E13, op_id=9)
    assert state == (E13,)
    assert response.result is True
    assert response.op_id == 9


def test_push_appends_at_top():
    state, _ = apply_push(elems((17, 1), (11, 2)), Element(8, 3))
    assert [e.value for e in state] == [17, 11, 8]
    state, _ = apply_push(state, Element(12, 4))
    assert [e.value for e in state] == [17, 11, 8, 12]


def test_duplicate_push_id_rejected():
    state, _ = apply_push(EMPTY_STATE, Element(1, 7))
    with pytest.raises(TransitionError):
        apply_push(state, Element(2, 7))


def test_pop_class_all_members_share_the_top():
    state, responses = apply_pop_class(STATE_17_7_13, 3, op_ids=(6, 7, 8))
    assert state == elems((17, 1), (7, 3))
    assert [r.result for r in responses] == [E13, E13, E13]
    assert [r.op_id for r in responses] == [6, 7, 8]


def test_pop_class_single_member_is_plain_pop():
    state, responses = apply_pop_class(STATE_17_7_13, 1)
    assert state == elems((17, 1), (7, 3))
    assert len(responses) == 1 and responses[0].result == E13


def test_pop_class_sequence_two_then_one():
    state = elems((17, 1), (11, 2), (13, 4))
    state, responses = apply_pop_class(state, 2)
    assert [r.result.value for r in responses] == [13, 13]
    state, responses = apply_pop_class(state, 1)
    assert responses[0].result.value == 11
    assert state == elems((17, 1))


def test_pop_class_needs_a_member():
    with pytest.raises(TransitionError):
        apply_pop_class(STATE_17_7_13, 0)


def test_pop_class_on_empty_is_invalid():
    with pytest.raises(TransitionError):
        apply_pop_class(EMPTY_STATE, 1)


def test_pop_empty_identity():
    state, response = apply_pop_empty(EMPTY_STATE, op_id=3)
    assert state == EMPTY_STATE
    assert response.result is EMPTY
    state, response = apply_pop_empty(state)
    assert state == EMPTY_STATE and response.result is EMPTY


def test_pop_empty_on_nonempty_is_invalid():
    with pytest.raises(TransitionError):
        apply_pop_empty(STATE_17_7_13)


def test_class_structure_validation():
    e = Element(1, 1)
    with pytest.raises(MalformedClassError):
        pop_group_class((), e)
    with pytest.raises(MalformedClassError):
        pop_group_class((1, 1), e)
    cls = pop_empty_class(2)
    assert cls.kind is ClassKind.POP_EMPTY and cls.element is None
    assert push_class(1, e).op_ids == (1,)


def test_apply_class_checks_the_claimed_return():
    wrong = pop_group_class((5,), Element(7, 3))
    with pytest.raises(TransitionError):
        apply_class(STATE_17_7_13, wrong)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_accepts_shared_pops():
    e = Element(1, 1)
    verdict = replay([push_class(1, e), pop_group_class((2, 3), e)])
    assert verdict.accepted
    assert verdict.final_state == EMPTY_STATE
    assert [(r.op_id, r.result) for r in verdict.responses] == [
        (1, True),
        (2, e),
        (3, e),
    ]


def test_replay_rejects_popping_what_was_never_on_top():
    verdict = replay(
        [push_class(1, Element(1, 1)), pop_group_class((2,), Element(2, 2))]
    )
    assert not verdict.accepted
    assert verdict.failed_index == 1
    assert verdict.reason


def test_replay_rejects_pop_class_on_empty():
    verdict = replay([pop_group_class((1,), Element(1, 1))])
    assert not verdict.accepted and verdict.failed_index == 0


def test_replay_rejects_pop_empty_on_nonempty():
    verdict = replay([push_class(1, Element(1, 1)), pop_empty_class(2)])
    assert not verdict.accepted and verdict.failed_index == 1


def test_replay_empty_sequence_accepted():
    verdict = replay([])
    assert verdict.accepted and verdict.final_state == EMPTY_STATE


def test_replay_rejects_a_push_id_repeated_beneath_others():
    first, second, third = elems((1, 7), (2, 8), (3, 9))
    again = Element(4, 7)  # push id 7 is two elements down by now
    verdict = replay(
        [push_class(1, first), push_class(2, second), push_class(3, third), push_class(4, again)]
    )
    assert not verdict.accepted and verdict.failed_index == 3
    assert verdict.reason == "push id 7 already on the stack"
    with pytest.raises(TransitionError) as info:
        apply_push((first, second, third), again)
    assert str(info.value) == verdict.reason
    # Once popped, the id is free again.
    verdict = replay([push_class(1, first), pop_group_class((2,), first), push_class(3, again)])
    assert verdict.accepted and verdict.final_state == (again,)


def apply_each(classes):
    """replay as a plain fold of apply_class: the model, one class at a time."""
    state, responses = EMPTY_STATE, []
    for index, cls in enumerate(classes):
        try:
            state, step = apply_class(state, cls)
        except TransitionError as exc:
            return ReplayVerdict(False, failed_index=index, reason=str(exc))
        responses.extend(step)
    return ReplayVerdict(True, final_state=state, responses=tuple(responses))


any_element = st.builds(Element, st.integers(1, 2), st.integers(1, 4))
any_class = st.one_of(
    st.builds(push_class, st.integers(1, 9), any_element),
    st.builds(pop_empty_class, st.integers(1, 9)),
    st.builds(pop_group_class, st.sets(st.integers(1, 9), min_size=1, max_size=3), any_element),
)


@given(st.lists(any_class, max_size=12))
def test_replay_is_the_fold_of_apply_class(classes):
    # Repeated push ids, wrong tops and empty pops on a non-empty stack
    # included: the same verdict, index, reason, state and responses.
    assert replay(classes) == apply_each(classes)


# ---------------------------------------------------------------------------
# Properties against an independent list model
# ---------------------------------------------------------------------------

op_codes = st.lists(
    st.tuples(st.sampled_from(["push", "pop"]), st.integers(1, 3)), max_size=30
)


def interpret(codes):
    """Build a valid class sequence from free-form codes, tracking the
    expected behavior in a plain list alongside."""
    classes = []
    model = []
    expected = []  # (op_ids, expected result) per class
    op_id = 0
    push_id = 0
    for kind, k in codes:
        if kind == "push":
            push_id += 1
            op_id += 1
            element = Element(push_id % 5, push_id)
            classes.append(push_class(op_id, element))
            model.append(element)
            expected.append(((op_id,), True))
        elif not model:
            op_id += 1
            classes.append(pop_empty_class(op_id))
            expected.append(((op_id,), EMPTY))
        else:
            ids = tuple(range(op_id + 1, op_id + 1 + k))
            op_id += k
            top = model.pop()
            classes.append(pop_group_class(ids, top))
            expected.append((ids, top))
    return classes, model, expected


@given(op_codes)
def test_replay_matches_list_model(codes):
    classes, model, expected = interpret(codes)
    verdict = replay(classes)
    assert verdict.accepted
    assert list(verdict.final_state) == model
    flat = [(ids, result) for ids, result in expected]
    responses = iter(verdict.responses)
    for ids, result in flat:
        for op_id in ids:
            response = next(responses)
            assert response.op_id == op_id
            assert response.result == result


@given(op_codes)
def test_conservation(codes):
    classes, _, _ = interpret(codes)
    verdict = replay(classes)
    pushed = {c.element.push_id for c in classes if c.kind is ClassKind.PUSH}
    popped = {c.element.push_id for c in classes if c.kind is ClassKind.POP_GROUP}
    remaining = {e.push_id for e in verdict.final_state}
    assert popped | remaining == pushed
    assert not popped & remaining


@given(op_codes)
def test_replay_is_deterministic(codes):
    classes, _, _ = interpret(codes)
    assert replay(classes) == replay(classes)


@given(op_codes)
def test_singleton_classes_are_the_plain_stack(codes):
    # With every pop class a singleton the model must behave like list
    # append/pop exactly.
    singles = [(kind, 1) for kind, _ in codes]
    classes, model, expected = interpret(singles)
    verdict = replay(classes)
    assert verdict.accepted
    assert list(verdict.final_state) == model
    assert len(verdict.responses) == len(classes)
