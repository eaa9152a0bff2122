"""Shared test helpers: compact history construction, random histories and
the enumerating sweep that the counting one is compared against.

Histories are built from scripts, lists of tuples:

    ("inv", process, op_id, "push", element)
    ("inv", process, op_id, "pop")
    ("res", process, op_id, value)
    ("step", process, op_id, line)

An event's place in the history is its place in the script, so overlap
structure is spelled out directly by interleaving inv/res entries.
"""

from __future__ import annotations

import itertools
import random

from multistack.checker import check_linearizable, check_set_linearizable
from multistack.elements import EMPTY, Element
from multistack.history import Event, EventKind, History, OpName, dumps, history_shares_return
from multistack.simulator import FamilySweep, _prologue_ops, explore, plan, uniform_run


def seq_column(events) -> list[int]:
    """The SEQ column of the events' text."""
    return [int(line.split(" ", 1)[0]) for line in dumps(History(tuple(events))).splitlines()]


def build_history(script) -> History:
    events = []
    pending: dict[int, tuple[int, OpName]] = {}
    for entry in script:
        tag, process, op_id = entry[0], entry[1], entry[2]
        if tag == "inv":
            name = OpName.PUSH if entry[3] == "push" else OpName.POP
            payload = entry[4] if name is OpName.PUSH else None
            pending[process] = (op_id, name)
            kind = EventKind.INVOCATION
        elif tag == "res":
            name = pending.pop(process)[1]
            payload = entry[3]
            kind = EventKind.RESPONSE
        elif tag == "step":
            name = pending[process][1]
            payload = entry[3]
            kind = EventKind.STEP
        else:
            raise ValueError(f"unknown script tag {tag!r}")
        events.append(Event(process, op_id, kind, name, payload))
    return History(tuple(events))


def sequential_history(*ops) -> History:
    """ops: ("push", op_id, element) or ("pop", op_id, result); each op
    completes before the next begins, all on process 1."""
    script = []
    for op in ops:
        if op[0] == "push":
            script.append(("inv", 1, op[1], "push", op[2]))
            script.append(("res", 1, op[1], True))
        else:
            script.append(("inv", 1, op[1], "pop"))
            script.append(("res", 1, op[1], op[2]))
    return build_history(script)


# ---------------------------------------------------------------------------
# Random histories
# ---------------------------------------------------------------------------


def random_synthetic_history(rng: random.Random, max_ops: int = 8) -> History:
    """A well-formed history with arbitrary overlap and loosely plausible
    values: pop results are drawn from pushed elements (repeats allowed),
    EMPTY, or occasionally an element nobody pushed."""
    n_ops = rng.randint(1, max_ops)
    n_procs = rng.randint(1, min(3, n_ops))
    ops = []
    next_id = 1
    for op_index in range(n_ops):
        if rng.random() < 0.5:
            element = Element(rng.randint(1, 5), next_id)
            next_id += 1
            ops.append(("push", element))
        else:
            ops.append(("pop", None))
    # Deal operations to processes round-robin so every process is serial.
    queues: list[list[int]] = [[] for _ in range(n_procs)]
    for op_index in range(n_ops):
        queues[op_index % n_procs].append(op_index)

    pushed: list[Element] = []
    in_flight: dict[int, int] = {}  # process -> op index
    script = []
    # Leave a small chance of never responding, to exercise pending-drop.
    unresponded = {i for i in range(n_ops) if rng.random() < 0.1}
    while any(queues) or in_flight:
        choices = []
        for process in range(n_procs):
            if process in in_flight:
                choices.append((process, "res"))
            elif queues[process]:
                choices.append((process, "inv"))
        process, action = rng.choice(choices)
        if action == "inv":
            op_index = queues[process].pop(0)
            kind, element = ops[op_index]
            if kind == "push":
                assert element is not None
                script.append(("inv", process + 1, op_index + 1, "push", element))
                pushed.append(element)
            else:
                script.append(("inv", process + 1, op_index + 1, "pop"))
            in_flight[process] = op_index
        else:
            op_index = in_flight[process]
            if op_index in unresponded and not queues[process]:
                del in_flight[process]  # stays pending forever
                continue
            kind, element = ops[op_index]
            if kind == "push":
                script.append(("res", process + 1, op_index + 1, True))
            else:
                roll = rng.random()
                if roll < 0.15 or (not pushed and roll < 0.8):
                    result = EMPTY
                elif not pushed or roll < 0.25:
                    result = Element(rng.randint(1, 5), 99)  # never pushed
                else:
                    result = rng.choice(pushed)
                script.append(("res", process + 1, op_index + 1, result))
            del in_flight[process]
    return build_history(script)


def perturbed_history(rng: random.Random, history: History) -> History:
    """Corrupt one pop response so near-miss histories get generated too."""
    events = list(history.events)
    pop_responses = [
        i
        for i, e in enumerate(events)
        if e.kind is EventKind.RESPONSE and e.name is OpName.POP
    ]
    if not pop_responses:
        return history
    index = rng.choice(pop_responses)
    event = events[index]
    pushed = [
        e.payload
        for e in events
        if e.kind is EventKind.INVOCATION
        and e.name is OpName.PUSH
        and isinstance(e.payload, Element)
    ]
    if pushed and rng.random() < 0.6:
        new_payload = rng.choice(pushed)
    elif rng.random() < 0.5:
        new_payload = EMPTY
    else:
        new_payload = Element(rng.randint(1, 5), 999)
    events[index] = event._replace(payload=new_payload)
    return History(tuple(events))


def random_history(rng: random.Random, max_ops: int = 8) -> History:
    """A uniform run of a random 1-3 thread program (40%), one with a pop
    result corrupted (20%), or a synthetic history."""
    roll = rng.random()
    if roll >= 0.6:
        return random_synthetic_history(rng, max_ops)
    threads = rng.randint(1, 3)
    ops = []
    pushes = itertools.count(1)  # the k-th push pushes k
    for thread in range(1, threads + 1):
        for _ in range(rng.randint(1, max(1, max_ops // threads))):
            if len(ops) >= max_ops:
                break
            ops.append((thread, next(pushes) if rng.random() < 0.55 else None))
    history = uniform_run(plan((), ops), rng)[1]
    return history if roll < 0.4 else perturbed_history(rng, history)


# ---------------------------------------------------------------------------
# Enumerating sweep
# ---------------------------------------------------------------------------


def enumerated_sweep(scenarios) -> FamilySweep:
    """simulator.sweep's result got the long way: every run explored and
    counted one by one, each distinct INV/RES history judged once."""
    verdicts: dict = {}  # INV/RES events -> (set-lin verdict, shares a return, lin rejects)
    mixes = []
    accepted = shared = shared_lin_rejected = 0
    rejected = []
    for scenario in scenarios:
        max_ops = len(_prologue_ops(scenario.initial_memory)) + sum(map(len, scenario.programs))
        runs = 0
        for run in explore(scenario):
            runs += 1
            key = tuple(e for e in run.history.events if e.kind is not EventKind.STEP)
            if key not in verdicts:
                history = History(key)
                shares = history_shares_return(history)
                verdicts[key] = (
                    check_set_linearizable(history, max_ops=max_ops),
                    shares,
                    shares and not check_linearizable(history, max_ops=max_ops).accepted,
                )
            verdict, shares, lin_rejected = verdicts[key]
            if verdict.accepted:
                accepted += 1
            else:
                rejected.append((run.schedule, verdict.refutation))
            shared += shares
            shared_lin_rejected += lin_rejected
        mixes.append((scenario.programs, runs))
    return FamilySweep(
        tuple(mixes), accepted, shared, shared_lin_rejected, tuple(rejected), len(verdicts)
    )
