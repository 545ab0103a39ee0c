"""Budgeted, fault-tolerant orchestration of the partitioning flows.

:class:`ResilientRunner` turns the raw solvers into a restartable,
deadline-aware search, the way production partitioners treat their
engines:

* **deadlines** -- one overall wall-clock budget, split into
  exponentially sized per-attempt slices (early attempts are cheap
  probes, the final attempt on each rung gets everything left), each
  threaded into the solver as a graceful
  :class:`~repro.robust.budget.Budget` so a timed-out attempt still
  returns a structurally valid best-so-far solution;
* **retry with seed perturbation** -- every attempt derives a fresh
  seed, so a crash or a rejected solution is retried on a different
  random trajectory;
* **graceful degradation** -- on repeated failure the engine cascade
  steps down ``fm+functional -> fm+traditional -> fm`` while relaxing
  the carve bounds (extra low fill bands, more candidate devices);
* **best-so-far checkpointing** -- every verified solution is ranked
  and kept; when the budget runs out the best checkpoint is returned
  instead of raising.  Only when *no* verified solution exists does the
  runner raise :class:`~repro.robust.errors.BudgetExceededError`;
* **verification gate** -- each k-way solution is re-derived from first
  principles by :func:`repro.partition.verify.verify_solution`; corrupt
  solutions are rejected and retried.

Every decision is recorded in a machine-readable :class:`RunLog`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.results import BipartitionReport
from repro.obs.metrics import get_registry
from repro.partition.devices import DeviceLibrary, XC3000_LIBRARY
from repro.partition.fm_replication import FUNCTIONAL, NONE, TRADITIONAL
from repro.partition.kway import KWayConfig, KWaySolution, partition_heterogeneous
from repro.robust.budget import Budget
from repro.robust.errors import (
    BudgetExceededError,
    ConfigError,
    FATAL,
    SolverTimeoutError,
    VerificationError,
)
from repro.techmap.mapped import MappedNetlist

#: Degradation cascade, strongest engine first (paper's contribution
#: down to the plain [15] baseline).
ENGINE_LADDER: Tuple[str, ...] = ("fm+functional", "fm+traditional", "fm")

_ENGINE_STYLE: Dict[str, str] = {
    "fm+functional": FUNCTIONAL,
    "fm+traditional": TRADITIONAL,
    "fm": NONE,
}

#: Cap on the exponential split: no attempt slice is smaller than
#: remaining / 2**_MAX_SPLIT_EXP.
_MAX_SPLIT_EXP = 4


def engine_cascade(engine: str, fallback: bool = True) -> List[str]:
    """The engines tried for a request starting at ``engine``."""
    if engine not in ENGINE_LADDER:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {ENGINE_LADDER}"
        )
    if not fallback:
        return [engine]
    return list(ENGINE_LADDER[ENGINE_LADDER.index(engine):])


# ---------------------------------------------------------------------------
# Machine-readable run log
# ---------------------------------------------------------------------------


@dataclass
class RunEvent:
    """One orchestration decision or attempt outcome."""

    kind: str  # "attempt" | "degrade" | "relax" | "checkpoint" | "give-up"
    engine: str = ""
    attempt: int = -1
    seed: int = -1
    allotted: float = float("inf")  # seconds granted to the attempt
    elapsed: float = 0.0
    outcome: str = ""  # "ok" | "truncated" | "infeasible" | "timeout" | "error" | "rejected"
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "attempt": self.attempt,
            "seed": self.seed,
            "allotted": None if math.isinf(self.allotted) else round(self.allotted, 6),
            "elapsed": round(self.elapsed, 6),
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class RunLog:
    """Ordered record of everything a resilient run decided and saw."""

    events: List[RunEvent] = field(default_factory=list)

    def record(self, event: RunEvent) -> RunEvent:
        self.events.append(event)
        reg = get_registry()
        if reg.enabled:
            # Mirror every orchestration decision into the observability
            # stream so traces line up with the runner's own log.
            reg.counter(f"runner.{event.kind}").inc()
            reg.emit_event(f"runner.{event.kind}", **event.as_dict())
        return event

    # -- queries used by callers and tests -----------------------------
    def attempts(self) -> List[RunEvent]:
        """All solver attempts, in order."""
        return [e for e in self.events if e.kind == "attempt"]

    def degradations(self) -> List[str]:
        """Engines stepped down to, in cascade order."""
        return [e.engine for e in self.events if e.kind == "degrade"]

    def outcomes(self) -> List[str]:
        return [e.outcome for e in self.attempts()]

    def as_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready representation of the full log."""
        return [e.as_dict() for e in self.events]

    def summary(self) -> Dict[str, object]:
        attempts = self.attempts()
        return {
            "attempts": len(attempts),
            "ok": sum(1 for e in attempts if e.outcome in ("ok", "truncated", "infeasible")),
            "failed": sum(1 for e in attempts if e.outcome in ("timeout", "error", "rejected")),
            "degradations": self.degradations(),
        }

    def as_record(self) -> Dict[str, object]:
        """Ledger-ready view: the summary plus per-attempt outcomes.

        Stored under the (volatile) ``runner`` field of a run-ledger
        record -- orchestration behavior is timing-dependent (deadlines,
        retries), so it is excluded from quality-drift comparisons but
        kept for forensics.
        """
        return {
            "summary": self.summary(),
            "attempts": [
                {
                    "engine": e.engine,
                    "attempt": e.attempt,
                    "seed": e.seed,
                    "outcome": e.outcome,
                }
                for e in self.attempts()
            ],
        }


# ---------------------------------------------------------------------------
# Runner configuration and results
# ---------------------------------------------------------------------------


@dataclass
class RunnerConfig:
    """Knobs for :class:`ResilientRunner`.

    ``deadline`` is the overall wall-clock budget in seconds (``None`` =
    unlimited); ``attempt_timeout`` caps any single attempt on top of
    the exponential split; ``max_retries`` is the number of *extra*
    attempts per engine rung after the first; ``fallback`` enables the
    degradation cascade; ``verify`` gates every k-way solution through
    the independent checker; ``relax_carve`` loosens carve bounds as the
    cascade degrades.  ``clock`` is injectable for deterministic tests.
    """

    deadline: Optional[float] = None
    attempt_timeout: Optional[float] = None
    max_retries: int = 2
    fallback: bool = True
    verify: bool = True
    relax_carve: bool = True
    clock: Callable[[], float] = time.monotonic


@dataclass
class KWayRunResult:
    """Best verified k-way solution plus the full orchestration log."""

    solution: KWaySolution
    log: RunLog
    engine: str  # engine that produced the winning solution
    elapsed: float

    @property
    def degraded(self) -> bool:
        """True when the winning engine is weaker than the one requested."""
        return bool(self.log.degradations()) and self.engine != (
            self.log.attempts()[0].engine if self.log.attempts() else self.engine
        )


@dataclass
class BipartitionRunResult:
    """Bipartition report plus the orchestration log."""

    report: BipartitionReport
    log: RunLog
    engine: str
    elapsed: float


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class ResilientRunner:
    """Deadline/retry/degradation wrapper over the partitioning flows.

    Construct with a :class:`RunnerConfig` or keyword shortcuts::

        runner = ResilientRunner(deadline=5.0, max_retries=2)
        result = runner.kway(mapped, threshold=1)
        result.solution, result.log
    """

    def __init__(self, config: Optional[RunnerConfig] = None, **overrides: object) -> None:
        if config is not None and overrides:
            raise ConfigError("pass either a RunnerConfig or keyword overrides")
        self.config = config or RunnerConfig(**overrides)  # type: ignore[arg-type]
        if self.config.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")

    # -- internals ------------------------------------------------------
    def _attempt_seconds(
        self, total: Budget, attempts_left: int
    ) -> Optional[float]:
        """Exponential budget split: probe cheap, spend big at the end."""
        remaining = total.remaining()
        if math.isinf(remaining):
            allot: Optional[float] = None
        elif attempts_left <= 1:
            allot = remaining
        else:
            allot = remaining / (2 ** min(attempts_left - 1, _MAX_SPLIT_EXP))
        cap = self.config.attempt_timeout
        if cap is not None:
            allot = cap if allot is None else min(allot, cap)
        return allot

    @staticmethod
    def _solution_key(sol: KWaySolution) -> Tuple:
        """Checkpoint ranking: complete beats truncated, feasible beats
        infeasible, then the paper's lexicographic objective."""
        return (sol.truncated, not sol.feasible) + sol.cost.objective_key()

    @staticmethod
    def _classify(exc: Exception) -> str:
        if isinstance(exc, SolverTimeoutError):
            return "timeout"
        if isinstance(exc, VerificationError):
            return "rejected"
        return "error"

    def _relaxed_kway(
        self, base: KWayConfig, rung: int
    ) -> KWayConfig:
        """Carve-bound relaxation applied as the cascade degrades."""
        if rung == 0 or not self.config.relax_carve:
            return base
        extra = (0.15,) if rung == 1 else (0.15, 0.10)
        return replace(
            base,
            carve_fill_levels=base.carve_fill_levels + extra,
            devices_per_carve=base.devices_per_carve + rung,
        )

    # -- k-way ----------------------------------------------------------
    def kway(
        self,
        mapped: MappedNetlist,
        threshold: float = 1,
        library: Optional[DeviceLibrary] = None,
        algorithm: str = "fm+functional",
        seed: int = 0,
        seeds_per_carve: int = 3,
        devices_per_carve: int = 3,
        max_passes: int = 12,
        jobs: int = 1,
        multilevel: Optional[bool] = None,
    ) -> KWayRunResult:
        """Resilient heterogeneous k-way partitioning.

        Returns the best verified solution found within the deadline (a
        truncated best-so-far one if the budget expired mid-search) and
        the :class:`RunLog`; raises
        :class:`~repro.robust.errors.BudgetExceededError` only when
        every attempt failed and no checkpoint exists.
        """
        cfg = self.config
        total = Budget(cfg.deadline, clock=cfg.clock)
        log = RunLog()
        cascade = engine_cascade(algorithm, cfg.fallback)
        attempts_per_rung = 1 + cfg.max_retries
        planned = attempts_per_rung * len(cascade)
        done = 0

        best: Optional[KWaySolution] = None
        best_engine = ""
        library = library or XC3000_LIBRARY

        for rung, rung_engine in enumerate(cascade):
            if rung > 0:
                log.record(
                    RunEvent(
                        kind="degrade",
                        engine=rung_engine,
                        elapsed=total.elapsed(),
                        detail=f"stepping down from {cascade[rung - 1]}",
                    )
                )
                if cfg.relax_carve:
                    log.record(
                        RunEvent(
                            kind="relax",
                            engine=rung_engine,
                            elapsed=total.elapsed(),
                            detail="extending carve fill bands, widening device candidates",
                        )
                    )
            for attempt in range(attempts_per_rung):
                if total.expired and best is not None:
                    return self._kway_result(best, best_engine, log, total)
                allot = self._attempt_seconds(total, planned - done)
                done += 1
                run_seed = seed * 9973 + rung * 7919 + attempt * 104729 + 1
                attempt_budget = total.child(allot, graceful=True)
                kcfg = self._relaxed_kway(
                    KWayConfig(
                        library=library,
                        threshold=threshold,
                        style=_ENGINE_STYLE[rung_engine],
                        seed=run_seed,
                        seeds_per_carve=seeds_per_carve,
                        devices_per_carve=devices_per_carve,
                        max_passes=max_passes,
                        budget=attempt_budget,
                        jobs=jobs,
                        multilevel=multilevel,
                    ),
                    rung,
                )
                event = RunEvent(
                    kind="attempt",
                    engine=rung_engine,
                    attempt=done,
                    seed=run_seed,
                    allotted=float("inf") if allot is None else allot,
                )
                started = cfg.clock()
                try:
                    sol = partition_heterogeneous(mapped, kcfg)
                    if cfg.verify:
                        from repro.partition.verify import verify_solution

                        verify_solution(mapped, sol, raise_on_violation=True)
                except FATAL:
                    raise
                except Exception as exc:  # noqa: BLE001 - logged and retried
                    event.elapsed = cfg.clock() - started
                    event.outcome = self._classify(exc)
                    event.detail = f"{type(exc).__name__}: {exc}"
                    log.record(event)
                    continue
                event.elapsed = cfg.clock() - started
                if sol.truncated:
                    event.outcome = "truncated"
                elif not sol.feasible:
                    event.outcome = "infeasible"
                else:
                    event.outcome = "ok"
                log.record(event)

                if best is None or self._solution_key(sol) < self._solution_key(best):
                    best, best_engine = sol, rung_engine
                    log.record(
                        RunEvent(
                            kind="checkpoint",
                            engine=rung_engine,
                            seed=run_seed,
                            elapsed=total.elapsed(),
                            outcome=event.outcome,
                            detail=f"cost={sol.cost.total_cost:.0f} k={sol.k}",
                        )
                    )
                if event.outcome == "ok":
                    return self._kway_result(best, best_engine, log, total)

        if best is not None:
            return self._kway_result(best, best_engine, log, total)
        log.record(
            RunEvent(kind="give-up", elapsed=total.elapsed(), outcome="failed")
        )
        raise BudgetExceededError(
            f"all {done} attempt(s) across {len(cascade)} engine(s) failed "
            f"within {total.elapsed():.3f}s; no verified solution to return",
            log=log,
        )

    def _kway_result(
        self,
        best: KWaySolution,
        best_engine: str,
        log: RunLog,
        total: Budget,
    ) -> KWayRunResult:
        return KWayRunResult(
            solution=best, log=log, engine=best_engine, elapsed=total.elapsed()
        )

    # -- bipartition ----------------------------------------------------
    def bipartition(
        self,
        mapped: MappedNetlist,
        algorithm: str = "fm+functional",
        runs: int = 20,
        threshold: float = 0,
        seed: int = 0,
        balance_tolerance: float = 0.02,
        max_passes: int = 16,
        max_growth: Optional[float] = None,
        jobs: int = 1,
        multilevel: Optional[bool] = None,
    ) -> BipartitionRunResult:
        """Resilient experiment-1 bipartitioning.

        The budget is threaded into every inner FM run (a timed-out
        experiment reports the runs it completed); crashes are retried
        with perturbed seeds and degraded down the engine cascade.
        """
        cfg = self.config
        total = Budget(cfg.deadline, clock=cfg.clock)
        log = RunLog()
        cascade = engine_cascade(algorithm, cfg.fallback)
        attempts_per_rung = 1 + cfg.max_retries
        planned = attempts_per_rung * len(cascade)
        done = 0

        from repro.core.flow import bipartition_experiment

        for rung, rung_engine in enumerate(cascade):
            if rung > 0:
                log.record(
                    RunEvent(
                        kind="degrade",
                        engine=rung_engine,
                        elapsed=total.elapsed(),
                        detail=f"stepping down from {cascade[rung - 1]}",
                    )
                )
            for attempt in range(attempts_per_rung):
                allot = self._attempt_seconds(total, planned - done)
                done += 1
                run_seed = seed * 9973 + rung * 7919 + attempt * 104729 + 1
                event = RunEvent(
                    kind="attempt",
                    engine=rung_engine,
                    attempt=done,
                    seed=run_seed,
                    allotted=float("inf") if allot is None else allot,
                )
                started = cfg.clock()
                try:
                    report = bipartition_experiment(
                        mapped,
                        algorithm=rung_engine,
                        runs=runs,
                        threshold=threshold,
                        seed=run_seed,
                        balance_tolerance=balance_tolerance,
                        max_passes=max_passes,
                        max_growth=max_growth,
                        budget=total.child(allot, graceful=True),
                        jobs=jobs,
                        multilevel=multilevel,
                    )
                except FATAL:
                    raise
                except Exception as exc:  # noqa: BLE001 - logged and retried
                    event.elapsed = cfg.clock() - started
                    event.outcome = self._classify(exc)
                    event.detail = f"{type(exc).__name__}: {exc}"
                    log.record(event)
                    continue
                event.elapsed = cfg.clock() - started
                event.outcome = "ok" if report.runs == runs else "truncated"
                event.detail = f"runs={report.runs} best_cut={report.best_cut}"
                log.record(event)
                return BipartitionRunResult(
                    report=report,
                    log=log,
                    engine=rung_engine,
                    elapsed=total.elapsed(),
                )

        log.record(
            RunEvent(kind="give-up", elapsed=total.elapsed(), outcome="failed")
        )
        raise BudgetExceededError(
            f"all {done} bipartition attempt(s) failed within "
            f"{total.elapsed():.3f}s",
            log=log,
        )
