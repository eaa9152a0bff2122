"""Brute-force reference deciders, deliberately unlike the real checker.

No search tree, no memoization, no pruning: group operations by returned
id, then literally try every permutation of the groups (itertools), keep
the ones that respect real-time precedence, and replay each against a
plain Python list.  Exponential and proud of it; only run at desk scale.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from multistack.elements import Element, _Empty
from multistack.history import History, OperationRecord, OpName, complete_operations


def _overlaps(a: OperationRecord, b: OperationRecord) -> bool:
    return not (a.responded_at < b.invoked_at or b.responded_at < a.invoked_at)


def _grouped(records: Sequence[OperationRecord]) -> Optional[list[tuple]]:
    """Classes as (kind, members, element) tuples, or None when the records
    already contradict every stack execution."""
    classes: list[tuple] = []
    seen_push_ids = set()
    pushes_by_id: dict[int, Element] = {}
    for record in records:
        if record.name is OpName.PUSH:
            if record.result is not True or not isinstance(record.argument, Element):
                return None
            if record.argument.push_id in seen_push_ids:
                return None
            seen_push_ids.add(record.argument.push_id)
            pushes_by_id[record.argument.push_id] = record.argument
            classes.append(("push", (record,), record.argument))

    pops_by_id: dict[int, list[OperationRecord]] = {}
    for record in records:
        if record.name is OpName.POP:
            if isinstance(record.result, _Empty):
                classes.append(("pop_empty", (record,), None))
            elif isinstance(record.result, Element):
                returned = record.result
                if pushes_by_id.get(returned.push_id) != returned:
                    return None
                pops_by_id.setdefault(returned.push_id, []).append(record)
            else:
                return None
    for push_id in sorted(pops_by_id):
        members = pops_by_id[push_id]
        for a, b in itertools.combinations(members, 2):
            if not _overlaps(a, b):
                return None
        classes.append(("pop", tuple(members), members[0].result))
    return classes


def _replays(order: Sequence[tuple]) -> bool:
    stack: list[Element] = []
    for kind, _, element in order:
        if kind == "push":
            if any(e.push_id == element.push_id for e in stack):
                return False
            stack.append(element)
        elif kind == "pop_empty":
            if stack:
                return False
        else:
            if not stack or stack[-1] != element:
                return False
            stack.pop()
    return True


def _accepts(classes: Sequence[tuple]) -> bool:
    n = len(classes)
    must_precede = [[False] * n for _ in range(n)]
    for i, (_, members_i, _) in enumerate(classes):
        for j, (_, members_j, _) in enumerate(classes):
            if i != j and any(
                a.responded_at < b.invoked_at for a in members_i for b in members_j
            ):
                must_precede[i][j] = True
    for perm in itertools.permutations(range(n)):
        if any(
            must_precede[perm[j]][perm[i]]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        if _replays([classes[i] for i in perm]):
            return True
    return False


def set_linearizable_by_enumeration(history: History) -> bool:
    records = complete_operations(history)
    classes = _grouped(records)
    if classes is None:
        return False
    return _accepts(classes)


def linearizable_by_enumeration(history: History) -> bool:
    records = complete_operations(history)
    classes: list[tuple] = []
    seen_push_ids = set()
    for record in records:
        if record.name is OpName.PUSH:
            if record.result is not True or not isinstance(record.argument, Element):
                return False
            if record.argument.push_id in seen_push_ids:
                return False
            seen_push_ids.add(record.argument.push_id)
            classes.append(("push", (record,), record.argument))
        elif isinstance(record.result, _Empty):
            classes.append(("pop_empty", (record,), None))
        elif isinstance(record.result, Element):
            classes.append(("pop", (record,), record.result))
        else:
            return False
    return _accepts(classes)
