"""Decision procedures for recorded histories.

Two checks over one partition:

* check_set_linearizable: operations that observably shared one removal
  (pops returning the same push id) are grouped into a single class, and
  the search looks for an ordering of whole classes that respects
  real-time precedence and replays through the set-sequential model.
* check_linearizable: the classical condition, where every class is one
  operation; it refutes a class of two or more pops without a search.

Grouping is forced, not searched: push ids are unique, so the partition
of pops by returned id is the only candidate.  That makes several
rejections structural (no search needed): pops sharing an id that do not
pairwise overlap, a popped id nobody pushed, or two pushes claiming one
id.  Both checks build their classes there, so whatever the linearizable
check accepts, the set-linearizable check accepts too.  Grouping reads
the records twice: one pass checks every result's shape and indexes the
pushes, the other builds each class together with its span.  Classes and
verdicts are built at C speed, with elements._new.

The span is three integers per class, its first invocation, last
invocation and first response, and it is all the search reads of the
records: class k precedes class i exactly when first_res[k] < last_inv[i].
A class's members overlap pairwise, so a remaining class is ready exactly
when its last_inv is below the earliest first_res among the remaining
classes (just-in-time linearization; Wing & Gong 1993, Lowe 2017).  The
search sorts grouping's rows and tries ready classes in order of first
invocation, depth first on an explicit stack.  It runs the model on
interned states (hash-consing; Filliâtre & Conchon 2006): a stack is an
id for its (stack below, push id on top) pair, so a transition costs O(1).
Each frame takes its ready window from its parent's and is memoized, when
dead, by (state, window), so a frame costs about the window's width.  A
search rejection is worded from the history alone, not from the search:
the classes replay in order of last invocation, and the model names the
first one it refuses.  If a precedes b, a's last invocation comes before
its first response, which comes before b's last invocation, so that order
respects real time, and its replay succeeding would be a missed witness,
raised as a checker bug.  A change to the search order changes no
refutation.  Accepted verdicts carry the witness
ordering, which is re-verified before being returned: one pass replays
it through the model, and one pass from its back checks that it places
every operation exactly once and respects real-time precedence.
Histories with more complete operations than the size cap come back
undecided rather than silently truncated.
"""

from __future__ import annotations

from enum import Enum, auto
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .elements import EMPTY, Element, _Empty, _new
from .history import (
    History,
    OperationRecord,
    OpName,
    complete_operations,
    concurrent,
    format_payload,
)
from .spec_machine import ClassKind, ConcurrencyClass, replay

DEFAULT_MAX_OPS = 16

# Module-level names: a global load is cheaper than an Enum class lookup.
_PUSH_OP = OpName.PUSH
_PUSH, _POP_EMPTY, _POP_GROUP = ClassKind

# A class's first invocation, last invocation and first response, then the class.
Row = tuple[int, int, int, ConcurrencyClass]


class StructuralRefutation(Exception):
    """The history is rejected before any search: no grouping exists."""


class CheckOutcome(Enum):
    ACCEPTED = auto()
    REJECTED = auto()
    UNDECIDED = auto()


class Verdict(NamedTuple):
    outcome: CheckOutcome
    witness: Optional[tuple[ConcurrencyClass, ...]] = None
    refutation: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.outcome is CheckOutcome.ACCEPTED


_ACCEPTED, _REJECTED, _UNDECIDED = CheckOutcome


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def group_classes(records: Sequence[OperationRecord]) -> list[Row]:
    """Partition complete operations into their only possible classes, each
    in a row with its span.

    Pops returning the same push id form one class, for both checks.
    Raises StructuralRefutation when no stack execution could have produced
    the records, naming the first of these faults: a result of the wrong
    shape (in record order), a duplicate push id, a popped id that was
    never pushed or a popped value disagreeing with its push (in record
    order), same-id pops that do not pairwise overlap.  One pass checks the
    shapes and indexes the pushes, keeping the first duplicate until every
    shape has passed; a second builds the rows: pushes and empty pops in
    record order, then pop classes by push id.  A singleton's span is its
    own interval; a group's runs from its earliest to its latest member
    invocation, and ends at its earliest member response.
    """
    if any(r.responded_at is None for r in records):
        raise ValueError("grouping expects pending operations to be dropped first")

    pushes_by_id: dict[int, OperationRecord] = {}
    duplicate = None  # the first push of an id an earlier push holds
    for record in records:
        if record.name is _PUSH_OP:
            if record.result is not True:
                raise StructuralRefutation(
                    f"push op {record.op_id} returned "
                    f"{format_payload(record.result)} instead of true"
                )
            push_id = record.argument.push_id
            if push_id not in pushes_by_id:
                pushes_by_id[push_id] = record
            elif duplicate is None:
                duplicate = record
        elif not isinstance(record.result, (Element, _Empty)):
            raise StructuralRefutation(
                f"pop op {record.op_id} returned neither an element nor empty"
            )
    if duplicate is not None:
        push_id = duplicate.argument.push_id
        raise StructuralRefutation(
            f"ops {pushes_by_id[push_id].op_id} and {duplicate.op_id} both pushed "
            f"id #{push_id}"
        )

    rows: list[Row] = []
    shared_pops: dict[int, list[OperationRecord]] = {}
    for record in records:
        op_id, _, name, argument, returned, invoked_at, responded_at = record
        if name is _PUSH_OP:
            cls = _new(ConcurrencyClass, (_PUSH, (op_id,), argument))
        elif returned is EMPTY:
            cls = _new(ConcurrencyClass, (_POP_EMPTY, (op_id,), None))
        else:
            push = pushes_by_id.get(returned.push_id)
            if push is None:
                raise StructuralRefutation(
                    f"op {op_id} popped {returned} but no push produced id #{returned.push_id}"
                )
            if push.argument != returned:
                raise StructuralRefutation(
                    f"op {op_id} popped {returned} but op {push.op_id} pushed {push.argument}"
                )
            shared_pops.setdefault(returned.push_id, []).append(record)
            continue
        rows.append((invoked_at, invoked_at, responded_at, cls))

    for push_id, members in sorted(shared_pops.items()):
        first = members[0]
        if len(members) == 1:
            cls = _new(ConcurrencyClass, (_POP_GROUP, (first.op_id,), first.result))
            rows.append((first.invoked_at, first.invoked_at, first.responded_at, cls))
            continue
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not concurrent(a, b):
                    raise StructuralRefutation(
                        f"ops {a.op_id} and {b.op_id} both popped id #{push_id} "
                        "but do not overlap in real time"
                    )
        invoked = [m.invoked_at for m in members]
        cls = _new(ConcurrencyClass, (_POP_GROUP, tuple(m.op_id for m in members), first.result))
        rows.append((min(invoked), max(invoked), min(m.responded_at for m in members), cls))
    return rows


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _search(rows: Sequence[Row]) -> Optional[tuple[ConcurrencyClass, ...]]:
    """Depth-first search for a precedence-respecting replayable order.

    Returns the order, or None on exhaustion; _check words a rejection
    from the rows alone (_refutation).  The ready window needs every
    class's last invocation to come before its first response, and
    grouping's rows guarantee it: a singleton responds after it is
    invoked, and intervals that overlap pairwise share a point.  Model
    states are interned ids: 0 is the empty stack, and each (state below,
    push id on top) pair gets one id, so equal stacks share an id.  Search
    states are (state id, ready window); dead ones are memoized so shared
    suffixes are refuted once.
    """
    n = len(rows)
    if n == 0:
        return ()
    # Deterministic witnesses: try ready classes by earliest member invocation.
    # First invocations are distinct event positions, so no two rows tie
    # there and the sort never compares classes.
    first_inv, last_inv, first_res, ordered = zip(*sorted(rows))
    below = [0]  # state id -> id of the state under its top
    tops: list[Optional[Element]] = [None]  # state id -> element on top
    interned: dict[tuple[int, int], int] = {}  # (below, push id) -> state id
    dead: set[tuple[int, ...]] = set()

    def open_frame(state: int, window: list[int], end: int, p: Optional[int]) -> tuple:
        # The bound is the earliest first response among the remaining
        # classes; no class invoked after it can lower it or be ready.
        bound = min(map(first_res.__getitem__, window)) if window else first_res[end]
        while end < n and first_inv[end] <= bound:
            window.append(end)
            if first_res[end] < bound:
                bound = first_res[end]
            end += 1
        ready = iter([q for q in window if last_inv[q] <= bound])
        return (state, *window), end, p, ready

    # One frame per placed class and the root: ((state id, *window), end,
    # the class placed to reach it, untried ready classes).  The window is
    # the remaining classes invoked before the bound, in index order; end
    # is the first class not yet scanned.  A class placed past the first
    # remaining one was ready, so invoked before the bound of every
    # remaining class: every class before end is placed or in the window,
    # and (state, window) keys the dead memo as exactly as (remaining set,
    # state).  Grouping rejects duplicate push ids, so a push always applies.
    frames = [open_frame(0, [], 0, None)]
    while frames:
        key, end, _, candidates = frames[-1]
        state = key[0]
        for p in candidates:
            kind, _, element = ordered[p]
            if kind is _PUSH:
                pair = (state, element.push_id)
                next_state = interned.get(pair)
                if next_state is None:
                    next_state = interned[pair] = len(below)
                    below.append(state)
                    tops.append(element)
            elif kind is _POP_EMPTY and not state:
                next_state = 0
            elif kind is _POP_GROUP and state and tops[state].push_id == element.push_id:
                next_state = below[state]
            else:
                continue
            if len(frames) == n:
                return tuple(ordered[frame[2]] for frame in frames[1:]) + (ordered[p],)
            window = list(key[1:])
            window.remove(p)
            frame = open_frame(next_state, window, end, p)
            if frame[0] not in dead:
                frames.append(frame)
                break
        else:
            dead.add(key)
            frames.pop()
    return None


def _refutation(rows: Sequence[Row]) -> str:
    """Word a search rejection from the history alone.

    The classes are replayed in order of last invocation, and the model's
    first refusal is named.  That order respects real time: if class a
    precedes class b, last_inv[a] < first_res[a] < last_inv[b], and last
    invocations are distinct event positions, so they never tie.  So when
    the search finds no order, this one fails too; if it replays, it is a
    witness the search missed, and a checker bug.
    """
    n = len(rows)
    verdict = replay([row[3] for row in sorted(rows, key=itemgetter(1))])
    if verdict.accepted:
        raise AssertionError("the order of last invocation replays; the search missed it")
    return (
        f"no precedence-respecting order of the {n} classes replays as a stack "
        f"(in order of last invocation, placed {verdict.failed_index} of {n}; "
        f"then: {verdict.reason})"
    )


def _verify_witness(
    order: Sequence[ConcurrencyClass], records: Sequence[OperationRecord]
) -> None:
    """Independent re-check of a found witness; a failure here is a checker bug.

    Three checks, each one pass: the order replays through the model, it
    places every operation exactly once, and no class is invoked after a
    class placed later has responded.  The last two share a pass from the
    back of the order; a precedence failure is raised after the cover has
    passed, so a witness failing both is refused for its cover.
    """
    verdict = replay(order)
    if not verdict.accepted:
        raise AssertionError(f"witness does not replay: {verdict.reason}")
    unplaced = {r.op_id: r for r in records}
    later_first_res = float("inf")  # earliest response among classes placed later
    disordered = False
    for cls in reversed(order):
        first_res = later_first_res
        for op in cls.op_ids:
            record = unplaced.pop(op, None)
            if record is None:
                raise AssertionError("witness does not cover the operations exactly once")
            if record.invoked_at > later_first_res:
                disordered = True
            if record.responded_at < first_res:
                first_res = record.responded_at
        later_first_res = first_res
    if unplaced:
        raise AssertionError("witness does not cover the operations exactly once")
    if disordered:
        raise AssertionError("witness order contradicts real-time precedence")


def _check(history: History, shared: bool, max_ops: int) -> Verdict:
    records = complete_operations(history)
    if len(records) > max_ops:
        return _new(
            Verdict,
            (_UNDECIDED, None, f"{len(records)} complete operations exceed the cap of {max_ops}"),
        )
    try:
        rows = group_classes(records)
        if not shared:
            for *_, (_, op_ids, element) in rows:
                if len(op_ids) > 1:
                    raise StructuralRefutation(
                        f"ops {op_ids[0]} and {op_ids[1]} both popped id #{element.push_id}; "
                        "a plain stack returns each element once"
                    )
    except StructuralRefutation as exc:
        return _new(Verdict, (_REJECTED, None, str(exc)))

    witness = _search(rows)
    if witness is None:
        return _new(Verdict, (_REJECTED, None, _refutation(rows)))
    _verify_witness(witness, records)
    return _new(Verdict, (_ACCEPTED, witness, None))


def check_set_linearizable(history: History, max_ops: int = DEFAULT_MAX_OPS) -> Verdict:
    """Is there an ordering of the forced classes that replays as a stack
    and respects real-time precedence?  Pending operations are dropped."""
    return _check(history, shared=True, max_ops=max_ops)


def check_linearizable(history: History, max_ops: int = DEFAULT_MAX_OPS) -> Verdict:
    """The classical condition: like check_set_linearizable, but a class of
    two or more pops is refuted, so no return sharing is allowed."""
    return _check(history, shared=False, max_ops=max_ops)


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


def format_witness(witness: Sequence[ConcurrencyClass]) -> str:
    """One line per class, in witness order: CLASS k: opids -> returned value."""
    pushed, empty = format_payload(True), format_payload(EMPTY)
    lines = []
    for k, (kind, op_ids, element) in enumerate(witness, start=1):
        if kind is ClassKind.PUSH:
            value = pushed
        elif kind is ClassKind.POP_EMPTY:
            value = empty
        else:
            value = format_payload(element)
        lines.append(f"CLASS {k}: {','.join(map(str, op_ids))} -> {value}\n")
    return "".join(lines)


def write_witness(witness: Sequence[ConcurrencyClass], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_witness(witness))
