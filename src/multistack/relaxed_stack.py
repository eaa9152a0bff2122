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

The algorithm is written twice here: the live path keeps each operation
one loop, since a transition per line costs a call per line, and
tests/test_differential.py pins the two texts to each other.
RelaxedStack.push/pop are the fast path the threads run; unchecked,
their one Python-level callee is compare_and_set.
An instrumented run calls its trace just after each labelled line's
action, and since another thread can act in between, trace calls need
not come in the order the actions took effect.  push_step/pop_step are
the same loops cut into one transition per numbered line, which the
simulator steps: given a line and the register t, each runs that line's
action and returns the next line and t, or DONE and the operation's
result.  A paused operation is thus plain data, its next line and its
register, and a simulated run can be copied instead of replayed.  A slot
runs one shared action and on through private lines, so a fresh
operation takes the slots

    push:  [inv, 3] -> [4] -> [6, res] with retries via [10] or a failed [6]
    pop:   [inv, 16, 17, res-empty]  or  [inv, 16, 17] -> [20] -> [21]
           -> [22, res], with [25] -> [16, 17] on a deleted top
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Union

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
    """Node variant that reports a True-to-False write of its elim flag and
    any write of its next link once published, so a broken invariant
    surfaces as data instead of silent corruption.  It reports into its
    stack's violation list, never back to the stack (see RelaxedStack)."""

    __slots__ = ("element", "published", "_next", "_elim", "_violations")

    def __init__(self, element: Element, violations: list[str]) -> None:
        self.element = element
        self.published = False
        self._next = None
        self._elim = False
        self._violations = violations

    @property
    def next(self) -> Optional[_GuardedNode]:
        return self._next

    @next.setter
    def next(self, node: Optional[_GuardedNode]) -> None:
        if self.published:  # the one write that can close a cycle
            self._violations.append(f"published {self.element} relinked; a cycle can close at it")
        self._next = node

    @property
    def elim(self) -> bool:
        return self._elim

    @elim.setter
    def elim(self, value: bool) -> None:
        if self._elim and not value:
            self._violations.append(f"elim flag of {self.element} was reset to False")
        self._elim = value


class RelaxedStack:
    """The relaxed stack.  See the module docstring for the algorithm.

    checked=True swaps in guarded nodes and collects invariant violations
    (one-way elim flag, acyclic reachable chain) instead of assuming them.
    Guarded nodes report into the stack's violation list, never back into
    the stack, so a checked stack holds no reference cycle and reference
    counting frees it with its nodes.  Appending to and copying the list
    are single C calls, which the GIL keeps whole without a lock.
    """

    def __init__(self, checked: bool = False) -> None:
        self._top = AtomicReference(None)
        self._ids = itertools.count(1)
        self._checked = checked
        self._violations: list[str] = []

    def make_element(self, value: int) -> Element:
        """Wrap a value with a fresh push id; lock-free, as PushIdSource."""
        return _new(Element, (value, next(self._ids)))

    def push(self, element: Element, trace: Optional[Trace] = None) -> bool:
        if self._checked:
            node = self._guarded_node(element)
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

    def _guarded_node(self, element: Element) -> _GuardedNode:
        """A fresh, unpublished guarded node reporting into this stack."""
        return _GuardedNode(element, self._violations)

    def _check_move(self, before: Optional[_GuardedNode]) -> None:
        """Record a move of top from before, read ahead of one shared action,
        other than a swing to before.next or a push, which publishes its node."""
        after = self._top.value
        if after is not None and not after.published and after.next is before:
            after.published = True
        elif after is not before and (before is None or after is not before.next):
            self._violations.append(f"top jumped to {after and after.element}: no swing or push")

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
        violations = list(self._violations)
        if self._checked:
            try:
                self._walk()
            except RuntimeError as cycle:
                violations.append(str(cycle))
        return violations

    def _walk(self) -> list:
        """Chase next pointers from top; a cycle raises RuntimeError.  Published
        links never change, so the walk sees a consistent chain even mid-run;
        a simulated run, whose nodes report a relink, walks once at its end."""
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


# -- the algorithm as steps ----------------------------------------------------


DONE = None  # the next line of an operation that has returned


def push_step(top: AtomicReference, node, line: int, t) -> tuple:
    """Run line of push(node.element) on register t: (next line, t), or
    (DONE, True) once the node is on top."""
    if line == 3:
        return 4, top.value
    if line == 4:
        return (6 if t is None or not t.elim else 10), t
    if line == 6:
        node.next = t  # private until the swing publishes it: one slot
        return (DONE, True) if top.compare_and_set(t, node) else (3, t)
    top.compare_and_set(t, t.next)  # line 10
    return 3, t


def pop_step(top: AtomicReference, node, line: int, t) -> tuple:
    """Run line of pop() on register t: (next line, t), or (DONE, the
    popped element or EMPTY).  A pop makes no node; node is None."""
    if line == 16:
        return 17, top.value
    if line == 17:
        return (DONE, EMPTY) if t is None else (20, t)
    if line == 20:
        return (25 if t.elim else 21), t
    if line == 21:
        t.elim = True
        return 22, t
    top.compare_and_set(t, t.next)  # line 22 or 25
    return (DONE, t.element) if line == 22 else (16, t)
