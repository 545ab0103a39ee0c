"""Deterministic fault injection for the solver stack.

The resilience machinery (retry, degradation, best-so-far checkpoints)
is worthless unless every path is provably exercised, so the solvers
expose named *fault sites* -- :func:`maybe_fire` calls that are no-ops
in production (an empty-list check) but consult the active
:class:`FaultPlan` under test:

``kway.carve``
    start of every carve iteration of
    :func:`repro.partition.kway.partition_heterogeneous`
    (context: ``index``, ``style``);
``engine.run``
    start of every :meth:`repro.partition.fm_replication.ReplicationEngine.run`
    (context: ``style``);
``fm.run``
    start of every :func:`repro.partition.fm.fm_bipartition` run;
``store.partial_write``
    inside :meth:`repro.cache.store.SolutionCache.put`, after the
    temporary sibling is written but *before* the atomic rename -- an
    injected error simulates a torn write (the stray ``.tmp`` file is
    left behind, the entry never lands) (context: ``key``).

A :class:`Fault` matches a site (plus optional context filters), skips
the first ``after`` matching calls, then fires up to ``times`` times --
raising a configured exception, sleeping ``delay`` seconds to simulate
a stuck pass, and/or (``exit_code``) terminating the whole process with
``os._exit`` to simulate a hard worker death.  Everything is
counter-based, so a given plan replays identically on every run.

Process-pool workers inherit the active plans: every pool in
:mod:`repro.perf.parallel` captures :func:`export_spec` at dispatch and
replays it through :func:`install_spec` in the worker initializer, so an
injected fault fires in children too.  Each worker rebuilds a *fresh*
plan -- hit/fire counters are per-process, which is what keeps replays
deterministic regardless of how jobs land on workers.

Usage::

    from repro.robust import faults

    with faults.inject(
        faults.Fault("engine.run", error=RuntimeError("boom"),
                     match={"style": "functional"}, times=1),
    ):
        ...  # first functional-replication engine run raises
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.robust.errors import ReproError


class FaultError(ReproError, RuntimeError):
    """Default exception raised by an injected fault."""


class Fault:
    """One deterministic fault: where, when and how to fire."""

    def __init__(
        self,
        site: str,
        *,
        error: Optional[Union[BaseException, type]] = None,
        delay: float = 0.0,
        match: Optional[Dict[str, object]] = None,
        after: int = 0,
        times: Optional[int] = None,
        exit_code: Optional[int] = None,
    ) -> None:
        if error is None and delay <= 0.0 and exit_code is None:
            raise ValueError("a fault needs an error, a delay, or an exit_code")
        self.site = site
        self.error = error
        self.delay = delay
        self.match = dict(match or {})
        self.after = after
        self.times = times
        self.exit_code = exit_code
        self.hits = 0  # matching calls seen
        self.fires = 0  # times actually fired

    def _matches(self, site: str, ctx: Dict[str, object]) -> bool:
        if site != self.site:
            return False
        return all(ctx.get(key) == value for key, value in self.match.items())

    def _make_error(self) -> BaseException:
        if isinstance(self.error, BaseException):
            return self.error
        assert self.error is not None
        return self.error(f"injected fault at {self.site!r} (hit {self.hits})")

    def fire(self, site: str, ctx: Dict[str, object]) -> None:
        """Fire if this call matches; raises the configured error."""
        if not self._matches(site, ctx):
            return
        self.hits += 1
        if self.hits - 1 < self.after:
            return
        if self.times is not None and self.fires >= self.times:
            return
        self.fires += 1
        if self.delay > 0.0:
            time.sleep(self.delay)
        if self.exit_code is not None:
            # A hard kill: no cleanup, no exception propagation -- exactly
            # what a SIGKILLed pool worker looks like from the parent.
            os._exit(self.exit_code)
        if self.error is not None:
            raise self._make_error()

    # -- spec (de)serialization ----------------------------------------
    def spec(self) -> Dict[str, Any]:
        """A picklable/JSON-able description of this fault.

        The configured error travels as its class path (an error
        *instance* degrades to its class -- the worker regenerates the
        message); counters do not travel, so a rebuilt fault starts
        fresh.
        """
        error = self.error
        if isinstance(error, BaseException):
            error = type(error)
        return {
            "site": self.site,
            "error": f"{error.__module__}:{error.__qualname__}"
            if error is not None
            else None,
            "delay": self.delay,
            "match": dict(self.match),
            "after": self.after,
            "times": self.times,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "Fault":
        """Rebuild a fault from :meth:`spec` (fresh counters)."""
        error: Optional[type] = None
        if spec.get("error"):
            module, _, qualname = spec["error"].partition(":")
            obj: Any = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            error = obj
        return cls(
            spec["site"],
            error=error,
            delay=spec.get("delay", 0.0),
            match=spec.get("match"),
            after=spec.get("after", 0),
            times=spec.get("times"),
            exit_code=spec.get("exit_code"),
        )


class FaultPlan:
    """An ordered collection of faults active for one ``inject`` scope."""

    def __init__(self, *faults: Fault) -> None:
        self.faults: List[Fault] = list(faults)

    def fire(self, site: str, ctx: Dict[str, object]) -> None:
        for fault in self.faults:
            fault.fire(site, ctx)

    def total_fires(self) -> int:
        """How many faults actually fired (for test assertions)."""
        return sum(fault.fires for fault in self.faults)


#: Active plans (a stack, so scopes nest).  Empty in production: the
#: :func:`maybe_fire` fast path is a single falsy check.
_ACTIVE: List[FaultPlan] = []


def maybe_fire(site: str, **ctx: object) -> None:
    """Fault-site hook called by the solvers; no-op unless injecting."""
    if not _ACTIVE:
        return
    for plan in list(_ACTIVE):
        plan.fire(site, ctx)


@contextmanager
def inject(*faults: Union[Fault, FaultPlan]) -> Iterator[FaultPlan]:
    """Activate a fault plan for the dynamic extent of the block."""
    if len(faults) == 1 and isinstance(faults[0], FaultPlan):
        plan = faults[0]
    else:
        flat: List[Fault] = []
        for item in faults:
            if isinstance(item, FaultPlan):
                flat.extend(item.faults)
            else:
                flat.append(item)
        plan = FaultPlan(*flat)
    _ACTIVE.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE.remove(plan)


def active() -> bool:
    """True when at least one fault plan is installed (test helper)."""
    return bool(_ACTIVE)


def export_spec() -> List[Dict[str, Any]]:
    """Every active fault as a picklable spec (for worker initializers).

    Empty when nothing is injected -- the common case, in which workers
    pay nothing.  The process pools of :mod:`repro.perf.parallel` capture
    this at dispatch so plans injected in the parent also fire in
    children.
    """
    return [fault.spec() for plan in _ACTIVE for fault in plan.faults]


def install_spec(spec: Optional[List[Dict[str, Any]]]) -> Optional[FaultPlan]:
    """Install a fresh plan rebuilt from :func:`export_spec` output.

    Meant for worker *initializers*: the plan stays active for the
    worker's lifetime (workers die with their pool, so no scope exit
    exists to pop it).  Returns the installed plan, or ``None`` for an
    empty/absent spec.
    """
    if not spec:
        return None
    plan = FaultPlan(*(Fault.from_spec(s) for s in spec))
    _ACTIVE.append(plan)
    return plan
