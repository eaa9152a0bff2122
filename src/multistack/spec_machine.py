"""Set-sequential reference model of a stack whose pops may share a return.

The model state is the sequence of currently-present elements, deepest
first; the top of the stack is the last entry.  Transitions consume whole
concurrency classes rather than single operations:

* a Push class (always a singleton) appends its element at the end;
* a Pop class of k members removes the last element exactly once, and all
  k members return that element;
* a Pop class on the empty state (also a singleton) returns EMPTY and
  leaves the state unchanged.

Restricted to singleton classes this is the classical sequential stack.
The checker replays candidate class orderings through this module, so it
is deliberately tiny, pure, and total over validated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import NamedTuple, Optional, Sequence, Union

from .elements import EMPTY, Element, _Empty

SpecState = tuple[Element, ...]

EMPTY_STATE: SpecState = ()

ResultValue = Union[Element, _Empty, bool]


class TransitionError(ValueError):
    """An operation class is not applicable in the current state."""


class MalformedClassError(ValueError):
    """A concurrency class is structurally invalid regardless of state."""


class SpecResponse(NamedTuple):
    """Return value handed to one member operation of an applied class."""

    op_id: int
    result: ResultValue


# ---------------------------------------------------------------------------
# Concurrency classes
# ---------------------------------------------------------------------------


class ClassKind(Enum):
    PUSH = auto()
    POP_EMPTY = auto()
    POP_GROUP = auto()


@dataclass(frozen=True)
class ConcurrencyClass:
    """A set of operations that take effect together in one transition.

    kind        what the class does to the state
    op_ids      member operation ids (singleton for PUSH and POP_EMPTY)
    element     the pushed element (PUSH) or the shared return (POP_GROUP);
                None for POP_EMPTY
    """

    kind: ClassKind
    op_ids: tuple[int, ...]
    element: Optional[Element]

    def __post_init__(self) -> None:
        if len(self.op_ids) == 0:
            raise MalformedClassError("class with no member operations")
        if len(set(self.op_ids)) != len(self.op_ids):
            raise MalformedClassError(f"repeated op id in class {self.op_ids}")
        if self.kind in (ClassKind.PUSH, ClassKind.POP_EMPTY) and len(self.op_ids) != 1:
            raise MalformedClassError(
                f"{self.kind.name} class must be a singleton, got {self.op_ids}"
            )
        if self.kind is ClassKind.POP_EMPTY:
            if self.element is not None:
                raise MalformedClassError("POP_EMPTY class carries no element")
        elif self.element is None:
            raise MalformedClassError(f"{self.kind.name} class requires an element")

    def describe(self) -> str:
        ops = ",".join(str(i) for i in self.op_ids)
        if self.kind is ClassKind.PUSH:
            return f"push[{ops}]({self.element})"
        if self.kind is ClassKind.POP_EMPTY:
            return f"pop[{ops}]->EMPTY"
        return f"pop[{ops}]->{self.element}"


def push_class(op_id: int, element: Element) -> ConcurrencyClass:
    return ConcurrencyClass(ClassKind.PUSH, (op_id,), element)


def pop_empty_class(op_id: int) -> ConcurrencyClass:
    return ConcurrencyClass(ClassKind.POP_EMPTY, (op_id,), None)


def pop_group_class(op_ids: Sequence[int], element: Element) -> ConcurrencyClass:
    return ConcurrencyClass(ClassKind.POP_GROUP, tuple(op_ids), element)


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------


def apply_push(
    state: SpecState, element: Element, op_id: int = 0
) -> tuple[SpecState, SpecResponse]:
    """Append element at the top.  Rejects a push id already present."""
    if any(e.push_id == element.push_id for e in state):
        raise TransitionError(f"push id {element.push_id} already on the stack")
    return state + (element,), SpecResponse(op_id, True)


def apply_pop_class(
    state: SpecState, k: int, op_ids: Optional[Sequence[int]] = None
) -> tuple[SpecState, list[SpecResponse]]:
    """Remove the top element once; all k member pops return it."""
    if k < 1:
        raise TransitionError(f"pop class needs at least one member, got k={k}")
    if not state:
        raise TransitionError("pop class applied to the empty state")
    if op_ids is None:
        op_ids = range(k)
    elif len(op_ids) != k:
        raise MalformedClassError(f"got {len(op_ids)} op ids for a class of {k}")
    top = state[-1]
    return state[:-1], [SpecResponse(i, top) for i in op_ids]


def apply_pop_empty(state: SpecState, op_id: int = 0) -> tuple[SpecState, SpecResponse]:
    """Pop on the empty stack: returns EMPTY, state unchanged."""
    if state:
        raise TransitionError("empty-pop applied to a non-empty state")
    return state, SpecResponse(op_id, EMPTY)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayVerdict:
    accepted: bool
    failed_index: Optional[int] = None
    reason: Optional[str] = None
    final_state: SpecState = EMPTY_STATE
    responses: tuple[SpecResponse, ...] = ()


def replay(classes: Sequence[ConcurrencyClass]) -> ReplayVerdict:
    """Run a class sequence from the empty state.

    Classes are validated structurally on construction; replay only decides
    whether each one is applicable in turn.  The first inapplicable class
    yields a rejection naming its index and the reason.
    """
    state: SpecState = EMPTY_STATE
    responses: list[SpecResponse] = []
    for index, cls in enumerate(classes):
        try:
            state, step_responses = apply_class(state, cls)
        except TransitionError as exc:
            return ReplayVerdict(False, failed_index=index, reason=str(exc))
        responses.extend(step_responses)
    return ReplayVerdict(True, final_state=state, responses=tuple(responses))


def apply_class(
    state: SpecState, cls: ConcurrencyClass
) -> tuple[SpecState, list[SpecResponse]]:
    """Apply one class, or raise TransitionError if it is not applicable."""
    if cls.kind is ClassKind.PUSH:
        assert cls.element is not None
        state, response = apply_push(state, cls.element, cls.op_ids[0])
        return state, [response]
    if cls.kind is ClassKind.POP_EMPTY:
        state, response = apply_pop_empty(state, cls.op_ids[0])
        return state, [response]
    assert cls.element is not None
    if not state:
        raise TransitionError(f"{cls.describe()} applied to the empty state")
    if state[-1] != cls.element:
        raise TransitionError(
            f"{cls.describe()} but the top of {state} is {state[-1]}"
        )
    return apply_pop_class(state, len(cls.op_ids), cls.op_ids)
