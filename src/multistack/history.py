"""Recorded runs: events, operation records, and the history text format.

A history is a globally ordered list of events.  Each line of the text
format is

    SEQ PROC OPID KIND NAME PAYLOAD

where SEQ is a gapless 0-based global sequence number, PROC a process
index, OPID the operation the event belongs to, KIND one of INV/RES/STEP
and NAME one of PUSH/POP.  PAYLOAD is one of

    v:<value>#<pushid>   an element (push argument, pop return)
    empty                the empty-stack pop return
    true                 the push return
    L<line>              the numbered algorithm line of a STEP event
    -                    no payload (pop invocation)

The `-` payload appears on POP invocations and nowhere else.  Files are
UTF-8, newline-terminated, sorted by SEQ.  This format is the contract
between the CLI subcommands: whatever records a run writes it, and the
checker reads it back.  Live runs (the Recorder) write INV/RES events only
and tally their steps per line; the deterministic simulator also writes
its STEP events, which are exact and in effect order.

Events and operation records are named tuples: immutable, compared and
hashed by their fields, and cheap to build.  A History pairs its events
into operation records once, on first use, and keeps them: validating a
parsed file and checking it share one pairing.  loads parses each distinct
payload token once, so a pop's result is its push's Element.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

from .elements import EMPTY, Element, _Empty

Payload = Union[Element, _Empty, bool, int, None]


class EventKind(Enum):
    INVOCATION = "INV"
    RESPONSE = "RES"
    STEP = "STEP"


class OpName(Enum):
    PUSH = "PUSH"
    POP = "POP"


_KIND_BY_TOKEN = {kind.value: kind for kind in EventKind}
_NAME_BY_TOKEN = {name.value: name for name in OpName}
_TOKEN_BY_KIND = {kind: token for token, kind in _KIND_BY_TOKEN.items()}
_TOKEN_BY_NAME = {name: token for token, name in _NAME_BY_TOKEN.items()}


class Event(NamedTuple):
    """One atomic observation: an invocation, a response, or a numbered step.

    The payload depends on the kind: the pushed element for a PUSH
    invocation (None for POP), the returned value for a response (True,
    an Element, or EMPTY), and the algorithm line number for a step.
    """

    seq: int
    process: int
    op_id: int
    kind: EventKind
    name: OpName
    payload: Payload


class RecorderError(RuntimeError):
    """An event that no well-formed run could produce; aborts the run."""


class HistoryFormatError(ValueError):
    """A history file that does not parse; carries the offending line."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class IllFormedHistory(ValueError):
    """An event sequence no single run could have produced."""

    def __init__(self, seq: int, message: str) -> None:
        super().__init__(message)
        self.seq = seq


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """Thread-safe event sink assigning the global sequence order.

    Each process records from one thread.  Invocations and responses take
    one internal lock, so the sequence numbers are gapless and unique, and
    the order of events in the history is the order in which the recording
    threads got through the recorder.  Per-process well-formedness (invoke,
    then steps, then respond) is enforced here so a harness bug cannot
    masquerade as an interesting history.

    Steps are tallied per process and line number, not stored: the history
    holds the INV/RES events only.  A live step callback fires after its
    action, so its place among other threads' events would not be its
    effect order.  A step takes no lock: it reads its own process's pending
    operation and bumps a counter only that process's thread writes.
    step_counts() sums the per-process tallies; it is exact once the
    recording threads are done.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._next_seq = 0
        self._pending: dict[int, tuple[int, OpName]] = {}
        self._step_counts: dict[int, dict[int, int]] = {}  # process -> line -> steps

    def invocation(
        self, process: int, op_id: int, name: OpName, argument: Optional[Element] = None
    ) -> None:
        if name is OpName.PUSH and argument is None:
            raise RecorderError(f"push invocation of op {op_id} without an argument")
        if name is OpName.POP and argument is not None:
            raise RecorderError(f"pop invocation of op {op_id} with an argument")
        with self._lock:
            if process in self._pending:
                raise RecorderError(
                    f"process {process} invoked op {op_id} while op "
                    f"{self._pending[process][0]} is still pending"
                )
            self._pending[process] = (op_id, name)
            self._step_counts.setdefault(process, {})
            self._append(process, op_id, EventKind.INVOCATION, name, argument)

    def response(self, process: int, op_id: int, value: Payload) -> None:
        with self._lock:
            self._require_pending(process, op_id)
            name = self._pending.pop(process)[1]
            self._append(process, op_id, EventKind.RESPONSE, name, value)

    def step(self, process: int, op_id: int, line: int) -> None:
        self._require_pending(process, op_id)
        counts = self._step_counts[process]  # made by the pending op's invocation
        counts[line] = counts.get(line, 0) + 1

    def tracer(self, process: int, op_id: int):
        """Bind process and op id into a step callback for a stack to call."""
        return lambda line: self.step(process, op_id, line)

    def history(self) -> "History":
        with self._lock:
            return History(tuple(self._events))

    def step_counts(self) -> dict[int, int]:
        totals: Counter[int] = Counter()
        with self._lock:
            for counts in self._step_counts.values():
                totals.update(dict(counts))  # a C-level copy: safe beside a live step
        return dict(totals)

    def _require_pending(self, process: int, op_id: int) -> None:
        pending = self._pending.get(process)
        if pending is None:
            raise RecorderError(f"process {process} has no pending operation")
        if pending[0] != op_id:
            raise RecorderError(
                f"process {process} recorded for op {op_id} while op "
                f"{pending[0]} is pending"
            )

    def _append(
        self, process: int, op_id: int, kind: EventKind, name: OpName, payload: Payload
    ) -> None:
        self._events.append(Event(self._next_seq, process, op_id, kind, name, payload))
        self._next_seq += 1


# ---------------------------------------------------------------------------
# Histories and operation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class History:
    """A validated, seq-ordered event sequence.

    Its operation records are paired on first use and kept with it; they
    take no part in equality or hashing.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for position, event in enumerate(self.events):
            if event.seq != position:
                raise ValueError(
                    f"event at position {position} has seq {event.seq}; "
                    "the sequence must be gapless and 0-based"
                )

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def _records(self) -> tuple[OperationRecord, ...]:
        """The paired operation records, built on first use and kept."""
        return _pair(self.events)


class OperationRecord(NamedTuple):
    """One operation's interval: its invocation and (if any) its response."""

    op_id: int
    process: int
    name: OpName
    argument: Optional[Element]
    result: Payload
    invoked_at: int
    responded_at: Optional[int]

    @property
    def complete(self) -> bool:
        return self.responded_at is not None


def _pair(events: tuple[Event, ...]) -> tuple[OperationRecord, ...]:
    """Pair up invocations and responses in one pass, in invocation order.

    Responses and steps must belong to the invoked-but-unresponded op of the
    same process and name its operation; anything else means the history is
    not well formed.
    """
    records: list[Optional[OperationRecord]] = []  # a slot per invocation, in order
    invoked: set[int] = set()
    pending: dict[int, tuple[int, Event]] = {}  # process -> (slot, invocation)
    for event in events:
        if event.kind is EventKind.INVOCATION:
            if event.op_id in invoked:
                raise IllFormedHistory(event.seq, f"op {event.op_id} invoked twice")
            if event.process in pending:
                raise IllFormedHistory(
                    event.seq,
                    f"process {event.process} invoked op {event.op_id} "
                    f"while op {pending[event.process][1].op_id} is pending",
                )
            if event.name is OpName.PUSH and not isinstance(event.payload, Element):
                raise IllFormedHistory(
                    event.seq, f"push invocation of op {event.op_id} lacks an element"
                )
            invoked.add(event.op_id)
            pending[event.process] = (len(records), event)
            records.append(None)
            continue
        slot, invocation = pending.get(event.process, (-1, None))
        is_response = event.kind is EventKind.RESPONSE
        if invocation is None or invocation.op_id != event.op_id:
            if is_response:
                message = (
                    f"response for op {event.op_id} does not match the pending "
                    f"operation of process {event.process}"
                )
            else:
                message = f"step for op {event.op_id} outside its invocation interval"
            raise IllFormedHistory(event.seq, message)
        if event.name is not invocation.name:
            raise IllFormedHistory(
                event.seq,
                f"{'response' if is_response else 'step'} for op {event.op_id} names "
                f"{_TOKEN_BY_NAME[event.name]} but op {event.op_id} is a "
                f"{_TOKEN_BY_NAME[invocation.name]}",
            )
        if is_response:
            del pending[event.process]
            records[slot] = _record(invocation, event)
    for slot, invocation in pending.values():
        records[slot] = _record(invocation, None)
    return tuple(records)


def _record(invocation: Event, response: Optional[Event]) -> OperationRecord:
    return OperationRecord(
        op_id=invocation.op_id,
        process=invocation.process,
        name=invocation.name,
        argument=invocation.payload if invocation.name is OpName.PUSH else None,
        result=None if response is None else response.payload,
        invoked_at=invocation.seq,
        responded_at=None if response is None else response.seq,
    )


def operations(history: History) -> list[OperationRecord]:
    """The history's operation records, in invocation order, as a fresh list.

    Raises IllFormedHistory when the events do not pair up (see _pair).
    """
    return list(history._records)


def complete_operations(history: History) -> list[OperationRecord]:
    return [r for r in history._records if r.complete]


def pending_operations(history: History) -> list[OperationRecord]:
    return [r for r in history._records if not r.complete]


def precedes(a: OperationRecord, b: OperationRecord) -> bool:
    """True when a responded before b was invoked (the real-time order)."""
    return a.responded_at is not None and a.responded_at < b.invoked_at


def concurrent(a: OperationRecord, b: OperationRecord) -> bool:
    return a is not b and not precedes(a, b) and not precedes(b, a)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def format_payload(payload: Payload) -> str:
    if payload is None:
        return "-"
    if payload is True:
        return "true"
    if isinstance(payload, _Empty):
        return "empty"
    if isinstance(payload, Element):
        return f"v:{payload.value}#{payload.push_id}"
    if isinstance(payload, int) and not isinstance(payload, bool):
        return f"L{payload}"
    raise ValueError(f"unencodable payload {payload!r}")


def format_event(event: Event) -> str:
    return (
        f"{event.seq} {event.process} {event.op_id} "
        f"{_TOKEN_BY_KIND[event.kind]} {_TOKEN_BY_NAME[event.name]} "
        f"{format_payload(event.payload)}"
    )


def dumps(history: History) -> str:
    return "".join(format_event(e) + "\n" for e in history.events)


def _parse_payload(token: str, lineno: int) -> Payload:
    if token == "-":
        return None
    if token == "true":
        return True
    if token == "empty":
        return EMPTY
    if token.startswith("v:"):
        body = token[2:]
        value_text, sep, id_text = body.partition("#")
        if not sep:
            raise HistoryFormatError(lineno, f"element payload without '#': {token!r}")
        try:
            return Element(int(value_text), int(id_text))
        except ValueError:
            raise HistoryFormatError(lineno, f"bad element payload {token!r}") from None
    if token.startswith("L"):
        try:
            return int(token[1:])
        except ValueError:
            raise HistoryFormatError(lineno, f"bad step payload {token!r}") from None
    raise HistoryFormatError(lineno, f"unrecognized payload {token!r}")


def parse_event(line: str, lineno: int) -> Event:
    return _parse_event(line, lineno, {})


def _parse_event(line: str, lineno: int, payloads: dict[str, Payload]) -> Event:
    """parse_event, looking payload tokens up in (and adding them to) payloads."""
    fields = line.split()
    if len(fields) != 6:
        raise HistoryFormatError(lineno, f"expected 6 fields, got {len(fields)}")
    seq_text, proc_text, opid_text, kind_text, name_text, payload_text = fields
    try:
        seq, process, op_id = int(seq_text), int(proc_text), int(opid_text)
    except ValueError:
        raise HistoryFormatError(lineno, "SEQ, PROC and OPID must be integers") from None
    kind = _KIND_BY_TOKEN.get(kind_text)
    if kind is None:
        raise HistoryFormatError(lineno, f"unknown event kind {kind_text!r}")
    name = _NAME_BY_TOKEN.get(name_text)
    if name is None:
        raise HistoryFormatError(lineno, f"unknown operation {name_text!r}")
    if payload_text in payloads:
        payload = payloads[payload_text]
    else:
        payload = payloads[payload_text] = _parse_payload(payload_text, lineno)
    is_line = isinstance(payload, int) and not isinstance(payload, bool)
    if kind is EventKind.STEP and not is_line:
        raise HistoryFormatError(lineno, "STEP events need an L<line> payload")
    if kind is not EventKind.STEP and is_line:
        raise HistoryFormatError(lineno, "L<line> payloads belong to STEP events")
    pop_invocation = kind is EventKind.INVOCATION and name is OpName.POP
    if pop_invocation and payload is not None:
        raise HistoryFormatError(lineno, "a POP invocation takes the '-' payload")
    if payload is None and not pop_invocation:
        raise HistoryFormatError(lineno, "the '-' payload belongs to POP invocations only")
    return Event(seq, process, op_id, kind, name, payload)


def loads(text: str) -> History:
    events: list[Event] = []
    linenos: list[int] = []
    payloads: dict[str, Payload] = {}  # token -> parsed payload, for this text only
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        event = _parse_event(line, lineno, payloads)
        if event.seq != len(events):
            raise HistoryFormatError(
                lineno, f"seq {event.seq} out of order; expected {len(events)}"
            )
        events.append(event)
        linenos.append(lineno)
    history = History(tuple(events))
    try:
        operations(history)
    except IllFormedHistory as exc:
        raise HistoryFormatError(linenos[exc.seq], str(exc)) from None
    return history


def write_history(history: History, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(history))


def read_history(path) -> History:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise HistoryFormatError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return loads(text)
