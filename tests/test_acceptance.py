"""The release gates, one test per gate.

Each test prints a single visible verdict line (ACCEPTANCE n PASS/FAIL)
so the run log shows the scorecard even when everything is green.  The
expensive sweeps run once per module and feed several gates.
"""

from __future__ import annotations

import random
import re
import time
from collections import Counter

import pytest

from multistack import checker
from multistack.checker import (
    CheckOutcome,
    check_linearizable,
    check_set_linearizable,
)
from multistack.elements import Element
from multistack.harness import RunConfig, run_stress
from multistack.history import OpName, complete_operations
from multistack.simulator import (
    Run,
    Scenario,
    all_program_mixes,
    load_bundled_fixture,
    plan,
    progress_probe,
    reachable_configs,
    replay_scenario,
    seeded_history,
    sweep,
    sweep_family,
    verify_expectations,
)
from naive_oracle import set_linearizable_by_enumeration

FAMILIES = ((2, 2), (3, 1))  # (threads, ops per thread)


def emit(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# Shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exploration():
    """Both families through the sweep behind `multistack explore`: every
    interleaving of every push/pop mix checked for set-linearizability,
    shared returns rechecked for plain linearizability.  Completing at all
    also certifies that no per-step invariant tripped across any run."""
    started = time.perf_counter()
    sweeps = [sweep_family(*family) for family in FAMILIES]
    return {
        "sweeps": dict(zip(FAMILIES, sweeps)),
        "total": sum(s.runs for s in sweeps),
        "accepted": sum(s.accepted for s in sweeps),
        "per_family": {family: s.runs for family, s in zip(FAMILIES, sweeps)},
        "shared": sum(s.shared for s in sweeps),
        "shared_lin_rejected": sum(s.shared_lin_rejected for s in sweeps),
        "rejected": [pair for s in sweeps for pair in s.rejected],
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def probe_sweep():
    """Freeze every enabled thread at every configuration any schedule of
    the two families can reach, and demand the other threads finish their
    current operations inside the chain-derived budget.  Configurations
    with no thread left to run are the families' end configurations."""
    configs = ends = probes = failures = 0
    started = time.perf_counter()
    for threads, ops in FAMILIES:
        for programs in all_program_mixes(threads, ops):
            scenario = Scenario(programs=programs)
            for schedule in reachable_configs(scenario):
                configs += 1
                enabled = Run(scenario, schedule).enabled()
                ends += not enabled
                for stalled in enabled:
                    probes += 1
                    report = progress_probe(scenario, schedule, stalled)
                    if report.failures:
                        failures += 1
    return {
        "configs": configs,
        "ends": ends,
        "probes": probes,
        "failures": failures,
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def stress_sweep():
    """100 seeded stress runs (4 threads × 4 ops) per implementation on real
    threads, plus one large run, with conservation cross-checked on every
    single run."""
    relaxed_rejections = []
    baseline_rejections = []
    conservation = []
    guard_violations = 0
    runs = 0
    for seed in range(100):
        result = run_stress(
            RunConfig(impl="relaxed", threads=4, ops_per_thread=4, seed=seed)
        )
        runs += 1
        conservation.extend(result.conservation)
        guard_violations += len(result.stack.invariant_violations)
        if not check_set_linearizable(result.history).accepted:
            relaxed_rejections.append(seed)
    for seed in range(100):
        result = run_stress(
            RunConfig(impl="baseline", threads=4, ops_per_thread=4, seed=seed)
        )
        runs += 1
        conservation.extend(result.conservation)
        if not check_linearizable(result.history).accepted:
            baseline_rejections.append(seed)
    big = run_stress(RunConfig(impl="relaxed", threads=8, ops_per_thread=10000, seed=5))
    runs += 1
    conservation.extend(big.conservation)
    guard_violations += len(big.stack.invariant_violations)
    return {
        "runs": runs,
        "relaxed_rejections": relaxed_rejections,
        "baseline_rejections": baseline_rejections,
        "conservation": conservation,
        "guard_violations": guard_violations,
        "big_total_ops": big.config.total_ops,
        "big_shared": len(big.shared_return_ids),
    }


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def test_acceptance_1_scenario_replays(capsys):
    started = time.perf_counter()
    outcomes = {}
    problems = []
    for name in ("shared_pop", "helped_pop", "push_race", "push_helps"):
        scenario = load_bundled_fixture(name)
        result = replay_scenario(scenario)
        outcomes[name] = result
        problems.extend(f"{name}: {p}" for p in verify_expectations(scenario, result))
    elapsed = time.perf_counter() - started

    def flat_values(result):
        return [v.value for per in result.returns for v in per]

    pinned = (
        flat_values(outcomes["shared_pop"]) == [13, 13, 13]
        and [e.value for e in outcomes["shared_pop"].logical] == [17, 7]
        and flat_values(outcomes["helped_pop"]) == [13, 13, 11]
        and [(e.value, d) for e, d in outcomes["push_race"].memory]
        == [(17, False), (11, False), (8, False), (12, False)]
        and [e.value for e in outcomes["push_helps"].logical] == [17, 11, 7, 12]
    )
    ok = not problems and pinned and elapsed < 1.0
    emit(capsys, 1, ok, f"4 fixture replays match pinned outcomes ({elapsed:.2f}s)")
    assert problems == []
    assert pinned
    assert elapsed < 1.0


def test_acceptance_2_exhaustive_set_linearizability(capsys, exploration):
    counts = ", ".join(
        f"{t}x{o}: {n}" for (t, o), n in exploration["per_family"].items()
    )
    ok = (
        exploration["total"] > 0
        and exploration["accepted"] == exploration["total"]
        and exploration["elapsed"] < 300.0
    )
    emit(
        capsys,
        2,
        ok,
        f"{exploration['accepted']}/{exploration['total']} interleavings "
        f"accepted ({counts}) in {exploration['elapsed']:.2f}s",
    )
    assert exploration["rejected"] == []
    assert exploration["accepted"] == exploration["total"] > 0
    assert exploration["elapsed"] < 300.0


def test_acceptance_3_multiplicity_witness(capsys, exploration):
    ok = (
        exploration["shared"] >= 1
        and exploration["shared_lin_rejected"] == exploration["shared"]
    )
    emit(
        capsys,
        3,
        ok,
        f"{exploration['shared']} histories share a popped element, "
        f"every one rejected by the strict checker",
    )
    assert exploration["shared"] >= 1
    # Shared returns are exactly the runs strict linearizability cannot save.
    assert exploration["shared_lin_rejected"] == exploration["shared"]


def test_acceptance_4_oracle_agreement(capsys):
    from support import random_history

    rng = random.Random(424242)
    total = 1000
    agreed = 0
    accepted = 0
    undecided = 0
    for _ in range(total):
        history = random_history(rng)
        verdict = check_set_linearizable(history)
        if verdict.outcome is CheckOutcome.UNDECIDED:
            undecided += 1
            continue
        if verdict.accepted == set_linearizable_by_enumeration(history):
            agreed += 1
            if verdict.accepted:
                accepted += 1
    ok = agreed == total and undecided == 0
    emit(
        capsys,
        4,
        ok,
        f"checker and enumeration oracle agree on {agreed}/{total} random "
        f"histories ({accepted} accepted)",
    )
    assert undecided == 0
    assert agreed == total


def test_acceptance_5_stress_soundness(capsys, stress_sweep):
    ok = (
        not stress_sweep["relaxed_rejections"]
        and not stress_sweep["baseline_rejections"]
        and not stress_sweep["conservation"]
    )
    emit(
        capsys,
        5,
        ok,
        f"100+100 stress runs (4 threads × 4 ops) accepted, conservation clean on all "
        f"{stress_sweep['runs']} runs incl. {stress_sweep['big_total_ops']} ops "
        f"({stress_sweep['big_shared']} shared returns observed live)",
    )
    assert stress_sweep["relaxed_rejections"] == []
    assert stress_sweep["baseline_rejections"] == []
    assert stress_sweep["conservation"] == []


def test_acceptance_6_progress_probe(capsys, probe_sweep):
    ok = probe_sweep["failures"] == 0 and probe_sweep["probes"] > 0
    emit(
        capsys,
        6,
        ok,
        f"{probe_sweep['probes']} stall probes over "
        f"{probe_sweep['configs']} reachable configurations, "
        f"{probe_sweep['failures']} missed the budget "
        f"({probe_sweep['elapsed']:.2f}s)",
    )
    assert probe_sweep["probes"] > 0
    assert probe_sweep["failures"] == 0


def test_acceptance_7_deletion_monotone_chain_acyclic(
    capsys, exploration, probe_sweep, stress_sweep
):
    # The interpreter checks both invariants slot by slot, at the writes
    # that can break them, the sweep's walk takes each edge's slot once
    # and walks each end configuration's chain once for a cycle, and any
    # violation raises, so the exploration fixture finishing at all means
    # zero violations on every run there; the live stacks carry guards
    # plus a final cycle-checking walk, folded into guard_violations and
    # conservation above.
    ok = (
        exploration["total"] > 0
        and stress_sweep["guard_violations"] == 0
        and not stress_sweep["conservation"]
    )
    emit(
        capsys,
        7,
        ok,
        f"no deletion-flag regression, no chain cycle across "
        f"{exploration['total']} runs ({probe_sweep['ends']} end configurations, each walked once) "
        f"and {stress_sweep['runs']} threaded runs",
    )
    assert exploration["total"] > 0
    assert stress_sweep["guard_violations"] == 0
    assert stress_sweep["conservation"] == []


def test_acceptance_8_strict_check_refuses_8_thread_shared_returns(capsys, monkeypatch):
    # The strict half of the 8-thread gate: seeded simulated 8 × 250 runs
    # share returns, and plain linearizability refuses each one by its
    # shared class alone, never entering the search.
    def no_search(rows):
        raise AssertionError("the strict check searched a history with a shared return")

    monkeypatch.setattr(checker, "_search", no_search)
    refusal = re.compile(
        r"ops \d+ and \d+ both popped id #\d+; a plain stack returns each element once"
    )
    seeds = list(range(5))
    shared = pops = 0
    refused = []  # seeds whose run shares a return and is refused for it
    for seed in seeds:
        history = seeded_history(seed)
        records = complete_operations(history)
        popped = [r for r in records if r.name is OpName.POP]
        returned = Counter(r.result.push_id for r in popped if isinstance(r.result, Element))
        shared_here = sum(count > 1 for count in returned.values())
        verdict = check_linearizable(history, max_ops=len(records))
        if shared_here and refusal.fullmatch(verdict.refutation or ""):
            refused.append(seed)
        shared += shared_here
        pops += len(popped)
    emit(
        capsys,
        8,
        refused == seeds,
        f"{len(refused)}/{len(seeds)} seeded simulated 8 × 250 runs share returns and are "
        f"refused by the strict checker without a search "
        f"({1000 * shared / pops:.0f} shared ids per 1,000 pops)",
    )
    assert refused == seeds


def seeded_2x2_mixes():
    """Each 2x2 push/pop mix planned over one undeleted seeded node; the
    k-th push pushes k, as in all_program_mixes."""
    for programs in all_program_mixes(2, 2):
        ops = [
            (thread, None if op.element is None else op.element.value)
            for thread, program in enumerate(programs, 1)
            for op in program
        ]
        yield plan([(100, False)], ops)


def test_acceptance_9_exhaustive_set_linearizability_past_2x2(capsys):
    # Counted on the configuration walk: 4x1 and 2x3 have far too many
    # runs to enumerate one by one.
    started = time.perf_counter()
    sweeps = {
        "4x1": sweep_family(4, 1),
        "2x3": sweep_family(2, 3),
        "seeded 2x2": sweep(seeded_2x2_mixes()),
    }
    elapsed = time.perf_counter() - started
    counts = {
        name: (s.runs, s.accepted, s.shared, s.shared_lin_rejected, s.distinct_histories)
        for name, s in sweeps.items()
    }
    pinned = {
        "4x1": (56_469_959_184, 56_469_959_184, 10_641_456, 10_641_456, 13_632),
        "2x3": (456_283_038, 456_283_038, 6_084_894, 6_084_894, 41_494),
        "seeded 2x2": (223_176, 223_176, 10_344, 10_344, 1_350),
    }
    rejected = [pair for s in sweeps.values() for pair in s.rejected]
    families = ", ".join(f"{name}: {s.runs:,} ({s.shared:,} shared)" for name, s in sweeps.items())
    emit(
        capsys,
        9,
        counts == pinned and not rejected,
        f"every run set-linearizable and every shared return refused by the strict "
        f"checker, counted on the configuration walk ({families}) in {elapsed:.1f}s",
    )
    assert rejected == []
    assert counts == pinned


def test_exploration_counts_per_family(exploration):
    # Runs, shared-return runs, those the strict check rejects, and
    # distinct INV/RES histories, per family.
    counts = {
        family: (s.runs, s.shared, s.shared_lin_rejected, s.distinct_histories)
        for family, s in exploration["sweeps"].items()
    }
    assert counts == {(2, 2): (82536, 1308, 1308, 714), (3, 1): (60750, 108, 108, 288)}
