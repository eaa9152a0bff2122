"""A lock-free stack whose overlapping pops may return the same element.

Pop removes in two stages: it first marks the top node as deleted (the
node's elim flag), and only then tries to swing the top reference past it.
The flag is read at one step and written at a later one on purpose: every
pop that reads the flag as False before any of them writes it returns the
same element.  Folding that read and write into one atomic update would
make the stack a plain one and forbid exactly those shared returns.

Both operations help: whoever finds a deleted node on top swings the top
reference past it before retrying, so a stalled pop cannot wedge the rest.

The numbered lines referenced by step traces:

    push(x):                       pop():
     2  loop:                       15  loop:
     3    t = top.get()             16    t = top.get()
     4    if not t.elim:            17    if t is empty:
     5      x.next = t              18      return empty
     6      if top.cas(t, x):       20    if not t.elim:
     7        return true           21      t.elim = true
     9    else:                     22      top.cas(t, t.next)
    10      top.cas(t, t.next)      23      return t.value
                                    25    else:
                                    26      top.cas(t, t.next)

Shared-memory actions carry the labels 3/16 (top loads), 4/20 (flag
reads), 21 (the flag write) and 6/10/22/25 (top compare-and-sets); the
other lines are private control flow.  An instrumented run emits one step
event per shared action, just after the action.  Another thread can act
between an action and its event, so step events are not guaranteed to be
in the order the actions took effect.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Union

from .elements import EMPTY, Element, PushIdSource, _Empty

Trace = Callable[[int], None]


class AtomicReference:
    """One shared cell with atomic load and compare-and-set.

    Hardware exposes compare-and-set as a single instruction; here a
    private mutex makes the compare and the swing indivisible.  Loads are
    plain reads, which the interpreter already performs atomically.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: Any = None) -> None:
        self._lock = threading.Lock()
        self._value = value

    def get(self) -> Any:
        return self._value

    def compare_and_set(self, expected: Any, new: Any) -> bool:
        # Identity compare: every push makes a fresh node and nodes are never
        # recycled, so reference equality is exact and ABA cannot occur.
        with self._lock:
            if self._value is expected:
                self._value = new
                return True
            return False


class _Node:
    __slots__ = ("element", "next", "elim")

    def __init__(self, element: Element) -> None:
        self.element = element
        self.next: Optional[_Node] = None
        self.elim = False


class _GuardedNode:
    """Node variant whose elim flag reports any True-to-False write.

    The flag is one-way by design; checked runs use this variant so a
    violation surfaces as data instead of silent corruption.
    """

    __slots__ = ("element", "next", "_elim", "_report")

    def __init__(self, element: Element, report: Callable[[str], None]) -> None:
        self.element = element
        self.next = None
        self._elim = False
        self._report = report

    @property
    def elim(self) -> bool:
        return self._elim

    @elim.setter
    def elim(self, value: bool) -> None:
        if self._elim and not value:
            self._report(f"elim flag of {self.element} was reset to False")
        self._elim = value


class RelaxedStack:
    """The relaxed stack.  See the module docstring for the algorithm.

    checked=True swaps in guarded nodes and collects invariant violations
    (one-way elim flag, acyclic reachable chain) instead of assuming them.
    """

    def __init__(self, checked: bool = False) -> None:
        self._top = AtomicReference(None)
        self._ids = PushIdSource()
        self._checked = checked
        self._violations: list[str] = []
        self._violations_lock = threading.Lock()

    def make_element(self, value: int) -> Element:
        """Wrap a value with a fresh push id (thread-safe)."""
        return self._ids.element(value)

    def push(self, element: Element, trace: Optional[Trace] = None) -> bool:
        node = self._new_node(element)
        while True:
            t = self._top.get()
            if trace is not None:
                trace(3)
            # The empty marker has no flag to read; an empty top never counts
            # as deleted, so a push onto nothing takes the insert branch.
            deleted = t is not None and t.elim
            if trace is not None:
                trace(4)
            if not deleted:
                node.next = t
                swung = self._top.compare_and_set(t, node)
                if trace is not None:
                    trace(6)
                if swung:
                    return True
            else:
                self._top.compare_and_set(t, t.next)
                if trace is not None:
                    trace(10)

    def pop(self, trace: Optional[Trace] = None) -> Union[Element, _Empty]:
        while True:
            t = self._top.get()
            if trace is not None:
                trace(16)
            empty_seen = t is None
            if trace is not None:
                trace(17)
            if empty_seen:
                return EMPTY
            deleted = t.elim
            if trace is not None:
                trace(20)
            if not deleted:
                # Between the read above and this write, any number of other
                # pops may read the flag as still False; every one of them
                # returns this element.  That window is the whole point.
                t.elim = True
                if trace is not None:
                    trace(21)
                # One swing attempt, outcome ignored: if it fails, someone
                # else has already moved top, or will help past this node.
                self._top.compare_and_set(t, t.next)
                if trace is not None:
                    trace(22)
                return t.element
            else:
                self._top.compare_and_set(t, t.next)
                if trace is not None:
                    trace(25)

    # -- observation ---------------------------------------------------------

    def logical_state(self) -> tuple[Element, ...]:
        """Undeleted reachable elements, deepest first.

        Safe to call at any time; it is a stable answer only while no
        operation is in flight.
        """
        return tuple(
            node.element for node in reversed(self._walk()) if not node.elim
        )

    def memory_snapshot(self) -> list[tuple[Element, bool]]:
        """(element, elim) for every reachable node, deepest first."""
        return [(node.element, bool(node.elim)) for node in reversed(self._walk())]

    @property
    def invariant_violations(self) -> list[str]:
        with self._violations_lock:
            return list(self._violations)

    def _walk(self) -> list:
        """Chase next pointers from top.  Published links never change, so
        the walk sees a consistent chain even mid-run."""
        nodes = []
        seen: set[int] = set()
        node = self._top.get()
        while node is not None:
            if id(node) in seen:
                self._record_violation(f"cycle through {node.element}")
                raise RuntimeError(f"reachable chain has a cycle at {node.element}")
            seen.add(id(node))
            nodes.append(node)
            node = node.next
        return nodes

    def _new_node(self, element: Element):
        if self._checked:
            return _GuardedNode(element, self._record_violation)
        return _Node(element)

    def _record_violation(self, message: str) -> None:
        with self._violations_lock:
            self._violations.append(message)
