"""A relaxed lock-free stack whose overlapping pops may share one element,
together with the machinery to observe and judge it: a thread-safe run
recorder, a set-linearizability checker, a deterministic schedule
simulator with exhaustive interleaving exploration, and a CLI."""

from .baseline_stack import TreiberStack
from .checker import (
    CheckOutcome,
    Verdict,
    check_linearizable,
    check_set_linearizable,
)
from .elements import EMPTY, Element, PushIdSource
from .history import (
    Event,
    EventKind,
    History,
    OperationRecord,
    OpName,
    Recorder,
    concurrent,
    operations,
    precedes,
)
from .relaxed_stack import AtomicReference, RelaxedStack
from .simulator import (
    PlannedOp,
    Scenario,
    explore,
    load_bundled_fixture,
    progress_probe,
    replay_scenario,
)
from .spec_machine import ConcurrencyClass, apply_class, replay

__all__ = [
    "AtomicReference",
    "CheckOutcome",
    "ConcurrencyClass",
    "EMPTY",
    "Element",
    "Event",
    "EventKind",
    "History",
    "OpName",
    "OperationRecord",
    "PlannedOp",
    "PushIdSource",
    "Recorder",
    "RelaxedStack",
    "Scenario",
    "TreiberStack",
    "Verdict",
    "apply_class",
    "check_linearizable",
    "check_set_linearizable",
    "concurrent",
    "explore",
    "load_bundled_fixture",
    "operations",
    "precedes",
    "progress_probe",
    "replay",
    "replay_scenario",
]
