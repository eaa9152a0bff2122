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
reads), 21 (the flag write) and 6/10/22/25 (top compare-and-sets); line 17
is a private test of the register loaded at 16 (PRIVATE_LINES).  top.get()
is notation: the code reads the cell's value slot, with no call.

The algorithm is written twice here, since the live path measured slower
draining generators, and tests/test_differential.py pins the two texts to
each other.  RelaxedStack.push/pop are the fast path the threads run;
unchecked, their one Python-level callee is compare_and_set.  An
instrumented run calls its trace just after each labelled line's action,
and since another thread can act in between, trace calls need not come
in the order the actions took effect.  push_steps/pop_steps are the same
loops as generators, which the simulator steps: each yields a label just
before the line's action, so a paused generator sits at the line its
thread runs next.  A slot resumes one for one shared action, running on
through private lines, so a fresh operation takes the slots

    push:  [inv, 3] -> [4] -> [6, res] with retries via [10] or a failed [6]
    pop:   [inv, 16, 17, res-empty]  or  [inv, 16, 17] -> [20] -> [21]
           -> [22, res], with [25] -> [16, 17] on a deleted top
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Generator, Optional, Union

from .elements import EMPTY, Element, _Empty, _new

Trace = Callable[[int], None]

# Labels that take no shared action: a scheduled slot runs on through them.
PRIVATE_LINES = frozenset({17})
# The top loads that begin each attempt, and the swings past a deleted top.
ATTEMPT_LINES = (3, 16)
HELP_LINES = (10, 25)


class AtomicReference:
    """One shared cell: a plain value slot with compare-and-set.

    Hardware exposes compare-and-set as a single instruction.  Here it takes
    no lock and relies on CPython 3.11's GIL, as make_element does: that
    eval loop switches threads only at RESUME, at backward jumps and at
    calls, and compare_and_set has one RESUME, before its read, and no jump
    back or call after it.  The slot reads and writes are C descriptors; the
    store cannot free the old value, which the caller still holds as
    expected; and nothing is allocated, so no garbage collection runs in
    between.  tests/test_relaxed_stack.py pins that bytecode.  The argument
    fails on a free-threaded build, and while a Python-level sys.settrace or
    sys.setprofile function runs between bytecodes.

    A mutex here was a convoy on the live stack: a thread switched out while
    holding it stalled every other push and pop.  Loads are plain reads of
    value, which the interpreter performs atomically: no call.  Every store
    after construction goes through compare_and_set.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def compare_and_set(self, expected: Any, new: Any) -> bool:
        # Identity compare: every push makes a fresh node and nodes are never
        # recycled, so reference equality is exact and ABA cannot occur.
        if self.value is expected:
            self.value = new
            return True
        return False


class _Node:  # no __init__ frame: push sets every slot before publishing
    __slots__ = ("element", "next", "elim")


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
        self._ids = itertools.count(1)
        self._checked = checked
        self._violations: list[str] = []
        self._violations_lock = threading.Lock()

    def make_element(self, value: int) -> Element:
        """Wrap a value with a fresh push id; lock-free, as PushIdSource."""
        return _new(Element, (value, next(self._ids)))

    def push(self, element: Element, trace: Optional[Trace] = None) -> bool:
        if self._checked:
            node = _GuardedNode(element, self._record_violation)
        else:
            node = _Node()
            node.element = element
            node.elim = False
        top = self._top
        while True:
            t = top.value
            if trace is not None:
                trace(3)
            # The empty marker has no flag to read; an empty top never counts
            # as deleted, so a push onto nothing takes the insert branch.
            deleted = t is not None and t.elim
            if trace is not None:
                trace(4)
            if not deleted:
                node.next = t
                swung = top.compare_and_set(t, node)
                if trace is not None:
                    trace(6)
                if swung:
                    return True
            else:
                top.compare_and_set(t, t.next)
                if trace is not None:
                    trace(10)

    def pop(self, trace: Optional[Trace] = None) -> Union[Element, _Empty]:
        top = self._top
        while True:
            t = top.value
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
                top.compare_and_set(t, t.next)
                if trace is not None:
                    trace(22)
                return t.element
            else:
                top.compare_and_set(t, t.next)
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
        """Violations recorded so far.  A checked stack also walks its chain
        from top here, so a cycle as it stands now is reported too."""
        with self._violations_lock:
            violations = list(self._violations)
        if self._checked:
            try:
                self._walk()
            except RuntimeError as cycle:
                violations.append(str(cycle))
        return violations

    def _walk(self) -> list:
        """Chase next pointers from top; a cycle raises RuntimeError.  Published
        links never change, so the walk sees a consistent chain even mid-run."""
        nodes = []
        seen: set[int] = set()
        node = self._top.value
        while node is not None:
            if id(node) in seen:
                raise RuntimeError(f"reachable chain has a cycle at {node.element}")
            seen.add(id(node))
            nodes.append(node)
            node = node.next
        return nodes

    def _record_violation(self, message: str) -> None:
        with self._violations_lock:
            self._violations.append(message)


# -- the algorithm as steps ----------------------------------------------------


def push_steps(top: AtomicReference, node) -> Generator[int, None, bool]:
    """push(node.element), yielding each line's label before its action."""
    while True:
        yield 3
        t = top.value
        yield 4
        if t is None or not t.elim:
            yield 6
            node.next = t  # private until the swing publishes it: one slot
            if top.compare_and_set(t, node):
                return True
        else:
            yield 10
            top.compare_and_set(t, t.next)


def pop_steps(top: AtomicReference) -> Generator[int, None, Union[Element, _Empty]]:
    """pop(), yielding each line's label before its action."""
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
            top.compare_and_set(t, t.next)
            return t.element
        yield 25
        top.compare_and_set(t, t.next)
