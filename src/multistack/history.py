"""Recorded runs: events, operation records, and the history text format.

A history is a globally ordered list of events.  Each line of the text
format is

    SEQ PROC OPID KIND NAME PAYLOAD

where SEQ is the line's 0-based position in the file, PROC a process
index, OPID the operation the event belongs to, KIND one of INV/RES/STEP
and NAME one of PUSH/POP.  PAYLOAD is one of

    v:<value>#<pushid>   an element (push argument, pop return)
    empty                the empty-stack pop return
    true                 the push return
    L<line>              the numbered algorithm line of a STEP event
    -                    no payload (pop invocation)

The `-` payload appears on POP invocations and nowhere else.  Files are
UTF-8, newline-terminated, sorted by SEQ.  In memory an event carries no
SEQ: a history is a tuple of events, and an event's position in it is when
it happened.  dumps writes each position as SEQ, and loads checks that the
SEQ column counts 0, 1, 2, ... before dropping it.  This format is the contract
between the CLI subcommands: whatever records a run writes it, and the
checker reads it back.  Live runs (the Recorder) write INV/RES events
only; the deterministic simulator also writes its STEP events, which are
exact and in effect order.

The Recorder takes no lock.  Each process records from one thread, and
every invocation and response is one list.append, which is atomic under
the GIL (Python FAQ, "What kinds of global value mutation are
thread-safe?"), so the order of the appends is one global order of the
events, and history() keeps that order.

Events and operation records are named tuples: immutable, compared and
hashed by their fields, and cheap to build.  A History pairs its events
into operation records once, on first use, and keeps them: validating a
parsed file and checking it share one pairing.  format_event and dumps
take the KIND and NAME tokens from one table, and dumps formats each
payload once.  loads parses each distinct payload token once, so a pop's
result is its push's Element, and validates each combination of KIND
token, NAME token and payload type once.  A line it cannot build from
those caches (a new combination, or a field that does not parse) takes
its one fallback, parse_event, which accepts the line or words its first
error in field order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .elements import EMPTY, Element, _Empty, _new

Payload = Union[Element, _Empty, bool, int, None]


class EventKind(Enum):
    INVOCATION = "INV"
    RESPONSE = "RES"
    STEP = "STEP"

    # Members are singletons, so identity hashing agrees with equality, and
    # it is a C call where Enum's own hash is a Python one.
    __hash__ = object.__hash__


class OpName(Enum):
    PUSH = "PUSH"
    POP = "POP"

    __hash__ = object.__hash__


_KIND_BY_TOKEN = {kind.value: kind for kind in EventKind}
_NAME_BY_TOKEN = {name.value: name for name in OpName}
# Module-level names: a global load is cheaper than an Enum class lookup.
_INVOCATION, _RESPONSE = EventKind.INVOCATION, EventKind.RESPONSE
_PUSH, _POP = OpName


class Event(NamedTuple):
    """One atomic observation: an invocation, a response, or a numbered step.

    An event does not know when it happened: that is its position in its
    history.

    The payload depends on the kind: the pushed element for a PUSH
    invocation (None for POP), the returned value for a response (True,
    an Element, or EMPTY), and the algorithm line number for a step.
    """

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
    """Lock-free event sink whose append order is the global order.

    Each process records from one thread.  Invocations and responses append
    an Event to one shared list, and list.append is atomic under the GIL
    (Python FAQ, "What kinds of global value mutation are thread-safe?"),
    so the order of the appends is one global order of the events.  A
    harness appends an invocation before the operation's first shared
    action and its response after the last, so that order respects real
    time.  history() is a snapshot of the list in that order.
    Per-process well-formedness (invoke, then respond) is enforced here, on
    state that only the process's own thread writes, so a harness bug
    cannot masquerade as an interesting history.

    Steps are not recorded: a live step callback fires after its action,
    so its place among other threads' events would not be its effect
    order.  A harness that wants per-line step counts keeps them itself.
    """

    def __init__(self) -> None:
        self._log: list[Event] = []
        self._pending: dict[int, tuple[int, OpName]] = {}  # process -> (op id, name)

    def invocation(
        self, process: int, op_id: int, name: OpName, argument: Optional[Element] = None
    ) -> None:
        if name is _PUSH and argument is None:
            raise RecorderError(f"push invocation of op {op_id} without an argument")
        if name is _POP and argument is not None:
            raise RecorderError(f"pop invocation of op {op_id} with an argument")
        pending = self._pending.get(process)
        if pending is not None:
            raise RecorderError(
                f"process {process} invoked op {op_id} while op "
                f"{pending[0]} is still pending"
            )
        self._pending[process] = (op_id, name)
        self._log.append(_new(Event, (process, op_id, _INVOCATION, name, argument)))

    def response(self, process: int, op_id: int, value: Payload) -> None:
        pending = self._pending.get(process)
        if pending is None:
            raise RecorderError(f"process {process} has no pending operation")
        if pending[0] != op_id:
            raise RecorderError(
                f"process {process} recorded for op {op_id} while op "
                f"{pending[0]} is pending"
            )
        del self._pending[process]
        self._log.append(_new(Event, (process, op_id, _RESPONSE, pending[1], value)))

    def history(self) -> "History":
        return History(tuple(self._log))  # one C-level copy: safe beside live appends


# ---------------------------------------------------------------------------
# Histories and operation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class History:
    """An event sequence in the order the events happened.

    Its operation records are paired on first use and kept with it; they
    take no part in equality or hashing.
    """

    events: tuple[Event, ...]

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
    # process -> (slot, op id, name, argument, invoked at) of its pending op
    pending: dict[int, tuple[int, int, OpName, Payload, int]] = {}
    for seq, (process, op_id, kind, name, payload) in enumerate(events):
        if kind is _INVOCATION:
            if op_id in invoked:
                raise IllFormedHistory(seq, f"op {op_id} invoked twice")
            if process in pending:
                raise IllFormedHistory(
                    seq,
                    f"process {process} invoked op {op_id} "
                    f"while op {pending[process][1]} is pending",
                )
            if name is _PUSH:
                if not isinstance(payload, Element):
                    raise IllFormedHistory(
                        seq, f"push invocation of op {op_id} lacks an element"
                    )
                argument = payload
            else:
                argument = None
            invoked.add(op_id)
            pending[process] = (len(records), op_id, name, argument, seq)
            records.append(None)
            continue
        entry = pending.get(process)
        is_response = kind is _RESPONSE
        if entry is None or entry[1] != op_id:
            if is_response:
                message = (
                    f"response for op {op_id} does not match the pending "
                    f"operation of process {process}"
                )
            else:
                message = f"step for op {op_id} outside its invocation interval"
            raise IllFormedHistory(seq, message)
        if name is not entry[2]:
            raise IllFormedHistory(
                seq,
                f"{'response' if is_response else 'step'} for op {op_id} names "
                f"{name.value} but op {op_id} is a {entry[2].value}",
            )
        if is_response:
            del pending[process]
            slot, _, _, argument, invoked_at = entry
            records[slot] = OperationRecord(
                op_id, process, name, argument, payload, invoked_at, seq
            )
    for process, (slot, op_id, name, argument, invoked_at) in pending.items():
        records[slot] = OperationRecord(op_id, process, name, argument, None, invoked_at, None)
    return tuple(records)


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


def history_shares_return(history: History) -> bool:
    """True when two responses return the same pushed element."""
    counts = Counter(
        event.payload.push_id
        for event in history.events
        if event.kind is EventKind.RESPONSE and isinstance(event.payload, Element)
    )
    return any(n > 1 for n in counts.values())


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


# " KIND NAME " for every pair, so a line is three numbers, a head and a payload.
_HEADS = {
    (kind, name): f" {kind.value} {name.value} " for kind in EventKind for name in OpName
}


def format_event(seq: int, event: Event) -> str:
    return (
        f"{seq} {event.process} {event.op_id}{_HEADS[event.kind, event.name]}"
        f"{format_payload(event.payload)}"
    )


def dumps(history: History) -> str:
    """The history's text: format_event of every event and its position, one
    per line.  An unknown kind or name raises KeyError."""
    tokens: dict[int, str] = {}  # id(payload) -> text; the history keeps payloads alive
    lines = []
    for seq, (process, op_id, kind, name, payload) in enumerate(history.events):
        head = _HEADS[kind, name]
        token = tokens.get(id(payload))
        if token is None:
            token = tokens[id(payload)] = format_payload(payload)
        lines.append(f"{seq} {process} {op_id}{head}{token}\n")
    return "".join(lines)


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


def parse_event(line: str, lineno: int) -> tuple[int, Event]:
    """The line's SEQ and its event."""
    return _parse_event(line, lineno, {})


def _parse_event(line: str, lineno: int, payloads: dict[str, Payload]) -> tuple[int, Event]:
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
    return seq, Event(process, op_id, kind, name, payload)


def loads(text: str) -> History:
    events: list[Event] = []
    linenos: list[int] = []
    payloads: dict[str, Payload] = {}  # token -> parsed payload, for this text only
    # (KIND token, NAME token, payload type) -> (kind, name), once parse_event
    # has accepted a line with them: later such lines need no other check.
    heads: dict[tuple[str, str, type], tuple[EventKind, OpName]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            seq_text, proc_text, opid_text, kind_text, name_text, payload_text = fields
            if payload_text in payloads:
                payload = payloads[payload_text]
            else:
                payload = payloads[payload_text] = _parse_payload(payload_text, lineno)
            kind, name = heads[kind_text, name_text, type(payload)]
            seq = int(seq_text)
            event = _new(Event, (int(proc_text), int(opid_text), kind, name, payload))
        except (ValueError, KeyError):
            # A field count, payload or integer that does not parse, or a head
            # not accepted yet: parse_event words the first error in field
            # order, or accepts the line and its head.
            seq, event = _parse_event(line, lineno, payloads)
            heads[kind_text, name_text, type(event.payload)] = (event.kind, event.name)
        if seq != len(events):
            raise HistoryFormatError(lineno, f"seq {seq} out of order; expected {len(events)}")
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
