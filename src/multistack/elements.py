"""Shared value vocabulary for the stacks, the model, and the tooling.

Every pushed value is wrapped in an Element carrying the unique id of the
push that produced it.  Ids let the tooling tell two pushes of the same
integer apart, which is what makes return-sharing across pops observable
in a recorded run.  Minting one takes no lock and relies on CPython's GIL.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

# Builds a named tuple from a plain one at C speed, skipping the Python-level
# __new__ that checks nothing: _new(Element, (value, push_id)).
_new = tuple.__new__


class _Empty:
    """Singleton marker for the empty stack (also the pop result on empty)."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Empty":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _Empty()


class Element(NamedTuple):
    """A pushed value plus the identity of the push that created it."""

    value: int
    push_id: int

    def __repr__(self) -> str:
        return f"v:{self.value}#{self.push_id}"


class PushIdSource:
    """Mints process-wide unique push ids, one element per push.

    No lock: under CPython 3.11's GIL, next() on an itertools.count is one
    C call that no thread switch can split, as list.append is for the
    recorder.  A lock here was a convoy on the live stack: a thread
    switched out while holding it stalled the other thread's next push,
    and two contending threads ran about three times slower.
    """

    __slots__ = ("_counter",)

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def element(self, value: int) -> Element:
        return _new(Element, (value, next(self._counter)))
