"""Classic lock-free stack used as the comparison baseline.

Pop swings the top reference directly, so every element is returned at
most once and every run is checkable against the plain sequential stack.
Shares the element vocabulary and the recording harness conventions with
the relaxed stack.
"""

from __future__ import annotations

from typing import Optional, Union

from .elements import EMPTY, Element, PushIdSource, _Empty
from .relaxed_stack import AtomicReference, Trace


class _Node:  # no __init__ frame, as in the relaxed stack
    __slots__ = ("element", "next")


class TreiberStack:
    def __init__(self) -> None:
        self._top = AtomicReference(None)
        self._ids = PushIdSource()

    def make_element(self, value: int) -> Element:
        return self._ids.element(value)

    # trace is accepted so one harness can drive either stack implementation;
    # the baseline has no numbered lines and emits no step events.

    def push(self, element: Element, trace: Optional[Trace] = None) -> bool:
        node = _Node()
        node.element = element
        top = self._top
        while True:
            t = top.value
            node.next = t
            if top.compare_and_set(t, node):
                return True

    def pop(self, trace: Optional[Trace] = None) -> Union[Element, _Empty]:
        top = self._top
        while True:
            t = top.value
            if t is None:
                return EMPTY
            if top.compare_and_set(t, t.next):
                return t.element

    def logical_state(self) -> tuple[Element, ...]:
        nodes = []
        node = self._top.value
        while node is not None:
            nodes.append(node.element)
            node = node.next
        return tuple(reversed(nodes))
