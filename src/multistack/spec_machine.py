"""Set-sequential reference model of a stack whose pops may share a return.

The model state is the sequence of currently-present elements, deepest
first; the top of the stack is the last entry.  Its one transition,
apply_class, consumes a whole concurrency class rather than one operation:

* a Push class (always a singleton) appends its element at the end;
* a Pop class of k members removes the last element exactly once; the
  class carries the element its k members returned, which must be the top;
* a Pop class on the empty state (also a singleton) returned EMPTY and
  leaves the state unchanged.

Restricted to singleton classes this is the classical sequential stack.
The checker builds the classes, from records it has already checked, and
replays candidate orderings through this module, so it is deliberately
tiny and pure.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple, Optional, Sequence

from .elements import Element, _new

SpecState = tuple[Element, ...]

EMPTY_STATE: SpecState = ()


class TransitionError(ValueError):
    """An operation class is not applicable in the current state."""


# ---------------------------------------------------------------------------
# Concurrency classes
# ---------------------------------------------------------------------------


class ClassKind(Enum):
    PUSH = auto()
    POP_EMPTY = auto()
    POP_GROUP = auto()


class ConcurrencyClass(NamedTuple):
    """A set of operations that take effect together in one transition.

    kind        what the class does to the state
    op_ids      member operation ids (singleton for PUSH and POP_EMPTY)
    element     the pushed element (PUSH) or the shared return (POP_GROUP);
                None for POP_EMPTY
    """

    kind: ClassKind
    op_ids: tuple[int, ...]
    element: Optional[Element]

    def describe(self) -> str:
        ops = ",".join(str(i) for i in self.op_ids)
        if self.kind is ClassKind.PUSH:
            return f"push[{ops}]({self.element})"
        if self.kind is ClassKind.POP_EMPTY:
            return f"pop[{ops}]->EMPTY"
        return f"pop[{ops}]->{self.element}"


# Module-level names: a global load is cheaper than an Enum class lookup.
_PUSH, _POP_EMPTY, _POP_GROUP = ClassKind


# ---------------------------------------------------------------------------
# The transition
# ---------------------------------------------------------------------------


def apply_class(state: SpecState, cls: ConcurrencyClass) -> SpecState:
    """Apply one class and return the next state, or raise TransitionError
    if it is not applicable.  A pop class names its return, so applying
    it checks that return against the top."""
    kind, _, element = cls
    if kind is _PUSH:
        if any(e.push_id == element.push_id for e in state):
            raise TransitionError(f"push id {element.push_id} already on the stack")
        return state + (element,)
    if kind is _POP_EMPTY:
        if state:
            raise TransitionError("empty-pop applied to a non-empty state")
        return state
    if not state:
        raise TransitionError(f"{cls.describe()} applied to the empty state")
    if state[-1] != element:
        raise TransitionError(f"{cls.describe()} but the top of {state} is {state[-1]}")
    return state[:-1]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class ReplayVerdict(NamedTuple):
    accepted: bool
    failed_index: Optional[int] = None
    reason: Optional[str] = None
    final_state: SpecState = EMPTY_STATE


def replay(classes: Sequence[ConcurrencyClass]) -> ReplayVerdict:
    """Run a class sequence from the empty state.

    Replay decides only whether each class is applicable in turn.  The
    first inapplicable class yields a rejection naming its index and the
    model's reason.  A set of the push ids on the stack, kept beside it,
    lets an applicable push or pop group take O(1); every other class goes
    through apply_class, which applies it or words its refusal.
    """
    stack: list[Element] = []  # the state, deepest first
    present: set[int] = set()  # the push ids in stack
    for index, cls in enumerate(classes):
        kind, _, element = cls
        if kind is _PUSH and element.push_id not in present:
            stack.append(element)
            present.add(element.push_id)
        elif kind is _POP_GROUP and stack and (stack[-1] is element or stack[-1] == element):
            present.remove(stack.pop().push_id)
        else:
            try:
                state = apply_class(tuple(stack), cls)
            except TransitionError as exc:
                return ReplayVerdict(False, failed_index=index, reason=str(exc))
            stack = list(state)
            present = {e.push_id for e in state}
    return _new(ReplayVerdict, (True, None, None, tuple(stack)))
