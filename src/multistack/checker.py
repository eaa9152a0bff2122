"""Decision procedures for recorded histories.

Two checks over the same machinery:

* check_set_linearizable: operations that observably shared one removal
  (pops returning the same push id) are grouped into a single class, and
  the search looks for an ordering of whole classes that respects
  real-time precedence and replays through the set-sequential model.
* check_linearizable: every operation is its own class, which is the
  classical condition against the plain sequential stack.

Grouping is forced, not searched: push ids are unique, so the partition
of pops by returned id is the only candidate.  That makes several
rejections structural (no search needed): pops sharing an id that do not
pairwise overlap, a popped id nobody pushed, or two pushes claiming one
id.  Both checks build their classes there, so whatever the linearizable
check accepts, the set-linearizable check accepts too.

Precedence comes from three integers per class, its first invocation,
last invocation and first response: class k precedes class i exactly when
first_res[k] < last_inv[i].  A class's members overlap pairwise, so a
remaining class is ready exactly when its last_inv is below the earliest
first_res among the remaining classes (just-in-time linearization; Wing &
Gong 1993, Lowe 2017).  The search tries ready classes in order of first
invocation, depth first on an explicit stack.  It runs the model on
interned states (hash-consing; Filliâtre & Conchon 2006): a stack is an
id for its (stack below, push id on top) pair, so a transition costs O(1).
Each frame takes its ready window from its parent's and is memoized, when
dead, by (state, window), so a frame costs about the window's width.  A
rejection words its deepest attempt's refusals by the model itself
(apply_class on the rebuilt state).  Accepted verdicts carry the witness
ordering, which is independently replayed through the model and
re-verified before being returned; histories with more complete operations
than the size cap come back undecided rather than silently truncated.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple, Optional, Sequence

from .elements import EMPTY, Element, _Empty
from .history import (
    History,
    OperationRecord,
    OpName,
    complete_operations,
    concurrent,
    format_payload,
)
from .spec_machine import (
    ClassKind,
    ConcurrencyClass,
    TransitionError,
    apply_class,
    pop_empty_class,
    pop_group_class,
    push_class,
    replay,
)

DEFAULT_MAX_OPS = 16


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


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def _check_result_shapes(records: Sequence[OperationRecord]) -> None:
    for record in records:
        if record.name is OpName.PUSH:
            if record.result is not True:
                raise StructuralRefutation(
                    f"push op {record.op_id} returned "
                    f"{format_payload(record.result)} instead of true"
                )
        else:
            if not isinstance(record.result, (Element, _Empty)):
                raise StructuralRefutation(
                    f"pop op {record.op_id} returned neither an element nor empty"
                )


def group_classes(
    records: Sequence[OperationRecord], shared: bool = True
) -> list[ConcurrencyClass]:
    """Partition complete operations into their only possible classes.

    Pops returning the same push id form one class; with shared=False every
    pop is alone in its class.  Raises StructuralRefutation when no stack
    execution could have produced the records: duplicate push ids, a popped
    id that was never pushed, a popped value disagreeing with its push, or
    same-id pops that do not pairwise overlap.
    """
    if any(not r.complete for r in records):
        raise ValueError("grouping expects pending operations to be dropped first")
    _check_result_shapes(records)

    pushes_by_id: dict[int, OperationRecord] = {}
    for record in records:
        if record.name is OpName.PUSH:
            assert isinstance(record.argument, Element)
            previous = pushes_by_id.get(record.argument.push_id)
            if previous is not None:
                raise StructuralRefutation(
                    f"ops {previous.op_id} and {record.op_id} both pushed "
                    f"id #{record.argument.push_id}"
                )
            pushes_by_id[record.argument.push_id] = record

    classes: list[ConcurrencyClass] = []
    shared_pops: dict[int, list[OperationRecord]] = {}
    for record in records:
        if record.name is OpName.PUSH:
            assert isinstance(record.argument, Element)
            classes.append(push_class(record.op_id, record.argument))
        elif isinstance(record.result, _Empty):
            classes.append(pop_empty_class(record.op_id))
        else:
            assert isinstance(record.result, Element)
            returned = record.result
            push = pushes_by_id.get(returned.push_id)
            if push is None:
                raise StructuralRefutation(
                    f"op {record.op_id} popped {returned} but no push produced "
                    f"id #{returned.push_id}"
                )
            assert isinstance(push.argument, Element)
            if push.argument != returned:
                raise StructuralRefutation(
                    f"op {record.op_id} popped {returned} but op {push.op_id} "
                    f"pushed {push.argument}"
                )
            key = returned.push_id if shared else record.op_id
            shared_pops.setdefault(key, []).append(record)

    for push_id, members in sorted(shared_pops.items()):
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not concurrent(a, b):
                    raise StructuralRefutation(
                        f"ops {a.op_id} and {b.op_id} both popped id #{push_id} "
                        "but do not overlap in real time"
                    )
        element = members[0].result
        assert isinstance(element, Element)
        classes.append(pop_group_class([m.op_id for m in members], element))
    return classes


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _search(
    classes: Sequence[ConcurrencyClass], records: Sequence[OperationRecord]
) -> tuple[Optional[tuple[ConcurrencyClass, ...]], str]:
    """Depth-first search for a precedence-respecting replayable order.

    Returns (order, "") on success or (None, refutation) on exhaustion.
    Model states are interned ids: 0 is the empty stack, and each (state
    below, push id on top) pair gets one id, so equal stacks share an id.
    Search states are (state id, ready window); dead ones are memoized so
    shared suffixes are refuted once.
    """
    n = len(classes)
    if n == 0:
        return (), ""
    by_id = {r.op_id: r for r in records}
    spans = []
    for cls in classes:
        if len(cls.op_ids) == 1:
            record = by_id[cls.op_ids[0]]
            first = last = record.invoked_at
            responded = record.responded_at
        else:
            invoked = [by_id[op].invoked_at for op in cls.op_ids]
            first, last = min(invoked), max(invoked)
            responded = min(by_id[op].responded_at for op in cls.op_ids)
        # The ready window needs this; grouping only builds overlapping classes.
        assert last < responded, f"class {cls.op_ids} is not concurrent"
        spans.append((first, last, responded, cls))
    # Deterministic witnesses: try ready classes by earliest member invocation.
    spans.sort(key=lambda span: span[0])
    first_inv, last_inv, first_res, ordered = zip(*spans)
    below = [0]  # state id -> id of the state under its top
    tops: list[Optional[Element]] = [None]  # state id -> element on top
    interned: dict[tuple[int, int], int] = {}  # (below, push id) -> state id
    dead: set[tuple[int, ...]] = set()
    best_depth, best_blocks = -1, []

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
        return (state, *window), end, p, ready, []

    def refusal(state: int, cls: ConcurrencyClass) -> str:
        """The model's own reason for refusing cls in the given state."""
        stack = []
        while state:
            stack.append(tops[state])
            state = below[state]
        try:
            apply_class(tuple(reversed(stack)), cls)
        except TransitionError as exc:
            return str(exc)
        raise AssertionError(f"the model applies {cls.describe()}; the search refused it")

    # One frame per placed class and the root: ((state id, *window), end,
    # the class placed to reach it, untried ready classes, (state id, class)
    # per refusal, worded only on rejection: interned states are never
    # dropped).  The window is the remaining classes invoked before the
    # bound, in index order; end is the first class not yet scanned.  A
    # class placed past the first remaining one was ready, so invoked before
    # the bound of every remaining class: every class before end is placed
    # or in the window, and (state, window) keys the dead memo as exactly as
    # (remaining set, state).  Grouping rejects duplicate push ids, so a
    # push is never refused.
    frames = [open_frame(0, [], 0, None)]
    while frames:
        key, end, _, candidates, blocks = frames[-1]
        state = key[0]
        for p in candidates:
            cls = ordered[p]
            if cls.kind is ClassKind.PUSH:
                pair = (state, cls.element.push_id)
                next_state = interned.get(pair)
                if next_state is None:
                    next_state = interned[pair] = len(below)
                    below.append(state)
                    tops.append(cls.element)
            elif cls.kind is ClassKind.POP_EMPTY and not state:
                next_state = 0
            elif (
                cls.kind is ClassKind.POP_GROUP
                and state
                and tops[state].push_id == cls.element.push_id
            ):
                next_state = below[state]
            else:
                blocks.append((state, cls))
                continue
            if len(frames) == n:
                return tuple(ordered[frame[2]] for frame in frames[1:]) + (cls,), ""
            window = list(key[1:])
            window.remove(p)
            frame = open_frame(next_state, window, end, p)
            if frame[0] not in dead:
                frames.append(frame)
                break
        else:
            if len(frames) > best_depth + 1:
                best_depth, best_blocks = len(frames) - 1, blocks
            dead.add(key)
            frames.pop()

    detail = "; ".join(refusal(*block) for block in best_blocks[:3])
    detail = detail or "no class is ready under the precedence order"
    return None, (
        f"no precedence-respecting order of the {n} classes replays as a stack "
        f"(best attempt placed {best_depth} of {n}; then: {detail})"
    )


def _verify_witness(
    order: Sequence[ConcurrencyClass], records: Sequence[OperationRecord]
) -> None:
    """Independent re-check of a found witness; a failure here is a checker bug."""
    verdict = replay(order)
    if not verdict.accepted:
        raise AssertionError(f"witness does not replay: {verdict.reason}")
    covered = sorted(op for cls in order for op in cls.op_ids)
    if covered != sorted(r.op_id for r in records):
        raise AssertionError("witness does not cover the operations exactly once")
    by_id = {r.op_id: r for r in records}
    later_first_res = float("inf")  # earliest response among classes placed later
    for cls in reversed(order):
        if later_first_res < max(by_id[op].invoked_at for op in cls.op_ids):
            raise AssertionError("witness order contradicts real-time precedence")
        later_first_res = min(later_first_res, *(by_id[op].responded_at for op in cls.op_ids))


def _check(history: History, shared: bool, max_ops: int) -> Verdict:
    records = complete_operations(history)
    if len(records) > max_ops:
        return Verdict(
            CheckOutcome.UNDECIDED,
            refutation=f"{len(records)} complete operations exceed the cap of {max_ops}",
        )
    try:
        classes = group_classes(records, shared)
    except StructuralRefutation as exc:
        return Verdict(CheckOutcome.REJECTED, refutation=str(exc))

    witness, refutation = _search(classes, records)
    if witness is None:
        return Verdict(CheckOutcome.REJECTED, refutation=refutation)
    _verify_witness(witness, records)
    return Verdict(CheckOutcome.ACCEPTED, witness=witness)


def check_set_linearizable(history: History, max_ops: int = DEFAULT_MAX_OPS) -> Verdict:
    """Is there an ordering of the forced classes that replays as a stack
    and respects real-time precedence?  Pending operations are dropped."""
    return _check(history, shared=True, max_ops=max_ops)


def check_linearizable(history: History, max_ops: int = DEFAULT_MAX_OPS) -> Verdict:
    """The classical condition: like check_set_linearizable but with every
    operation alone in its class, so no return sharing is allowed."""
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
