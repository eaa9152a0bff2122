"""Shared test helpers: compact history construction and random generators.

Histories are built from scripts, lists of tuples:

    ("inv", process, op_id, "push", element)
    ("inv", process, op_id, "pop")
    ("res", process, op_id, value)
    ("step", process, op_id, line)

An event's place in the history is its place in the script, so overlap
structure is spelled out directly by interleaving inv/res entries.
"""

from __future__ import annotations

import random
from typing import Optional

from multistack.elements import EMPTY, Element
from multistack.history import Event, EventKind, History, OpName, dumps
from multistack.simulator import PlannedOp, Run, Scenario


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


def random_simulated_history(rng: random.Random, max_ops: int = 8) -> History:
    """A history the relaxed stack really can produce: random small programs
    driven through the deterministic interpreter under a random schedule."""
    threads = rng.randint(1, 3)
    programs = []
    op_id = 0
    value = 0
    total = 0
    for _ in range(threads):
        count = rng.randint(1, max(1, max_ops // threads))
        program = []
        for _ in range(count):
            if total >= max_ops:
                break
            op_id += 1
            total += 1
            if rng.random() < 0.55:
                value += 1
                program.append(PlannedOp(op_id, OpName.PUSH, Element(value, value)))
            else:
                program.append(PlannedOp(op_id, OpName.POP))
        programs.append(tuple(program))
    scenario = Scenario(programs=tuple(programs))
    run = Run(scenario)
    events: list[Event] = []
    while enabled := run.enabled():
        run.take(rng.choice(enabled), events)
    return History(tuple(events))


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
    roll = rng.random()
    if roll < 0.4:
        return random_simulated_history(rng, max_ops)
    if roll < 0.6:
        return perturbed_history(rng, random_simulated_history(rng, max_ops))
    return random_synthetic_history(rng, max_ops)
