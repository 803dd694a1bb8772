"""Mid-run fault injection: link/switch failures as engine events.

The paper's §I names network failures as a first-class source of update
events, but :mod:`repro.network.failures` only supports *static* injection
before a run starts. This module schedules failures (and recoveries) at
simulated times *during* a run: :class:`FaultDriver` — a hook-bus plugin —
turns each :class:`LinkFault`/:class:`SwitchFault` into an engine callback
that fires the :class:`~repro.network.failures.FailureInjector`, packages
the stranded flows into a repair event
(:func:`~repro.network.failures.repair_event`), and enqueues the repair at
the failure's simulated time. The simulator core never imports this
module; fault sources attach themselves via
``UpdateSimulator(..., faults=source)`` → ``source.attach(sim)``.

Two sources of fault timelines:

* :class:`FaultSchedule` — an explicit, validated list of fault specs.
  ``FaultSchedule([])`` is the no-fault timeline; a simulator given it is
  byte-identical to one given no fault source at all.
* :class:`FaultProcess` — a seeded stochastic process (exponential
  inter-fault gaps over a horizon, uniformly chosen switch-switch links,
  lognormal-ish repair times). Materializing it against a network is a
  pure function of ``(seed, network topology)``, so faulted parallel
  sweeps stay deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.core.exceptions import SimulationError, TopologyError
from repro.network.failures import FailureInjector, FailureRecord, repair_event
from repro.sim.hooks import (
    FaultHealed,
    FaultInjected,
    RunStarted,
    SimulatorPort,
)


@dataclass(frozen=True)
class LinkFault:
    """One link failing at ``at`` and (optionally) healing at ``heal_at``.

    ``heal_at=None`` means the failure is permanent for the run.
    """

    u: str
    v: str
    at: float
    heal_at: float | None = None
    both_directions: bool = True

    def __post_init__(self):
        _validate_times(self.at, self.heal_at,
                        f"link fault {self.u}<->{self.v}")

    @property
    def description(self) -> str:
        return f"link {self.u}<->{self.v}"


@dataclass(frozen=True)
class SwitchFault:
    """A whole switch failing (all adjacent links) and optionally healing."""

    switch: str
    at: float
    heal_at: float | None = None

    def __post_init__(self):
        _validate_times(self.at, self.heal_at,
                        f"switch fault {self.switch}")

    @property
    def description(self) -> str:
        return f"switch {self.switch}"


FaultSpec = Union[LinkFault, SwitchFault]


def _validate_times(at: float, heal_at: float | None, what: str) -> None:
    if at < 0:
        raise SimulationError(f"{what}: fault time {at} is negative")
    if heal_at is not None and heal_at <= at:
        raise SimulationError(
            f"{what}: heal time {heal_at} must be after fault time {at}")


class FaultSchedule:
    """An explicit timeline of fault specs, sorted by fault time.

    Iterating yields the specs in ``(at, insertion order)`` order — the
    exact order the simulator delivers them to the engine.
    """

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        specs = list(faults)
        for spec in specs:
            if not isinstance(spec, (LinkFault, SwitchFault)):
                raise SimulationError(
                    f"fault schedule entries must be LinkFault or "
                    f"SwitchFault, got {type(spec).__name__}")
        self._specs = sorted(enumerate(specs),
                             key=lambda pair: (pair[1].at, pair[0]))
        self._specs = [spec for _, spec in self._specs]

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def materialize(self, network) -> "FaultSchedule":
        """Validate every spec against ``network`` and return the schedule.

        A schedule naming a link/switch the topology lacks fails here, at
        run start, instead of mid-simulation.
        """
        for spec in self._specs:
            if isinstance(spec, LinkFault):
                if not network.has_link(spec.u, spec.v):
                    raise TopologyError(
                        f"fault schedule names missing link "
                        f"{spec.u}->{spec.v}")
            elif spec.switch not in network.graph:
                raise TopologyError(
                    f"fault schedule names missing switch {spec.switch!r}")
        return self

    def attach(self, sim: SimulatorPort) -> "FaultDriver":
        """Wire this timeline into a simulator run (hook-bus plugin)."""
        driver = FaultDriver(self)
        driver.attach(sim)
        return driver


class FaultProcess:
    """Seeded stochastic link-failure process over a time horizon.

    Args:
        rate: expected faults per simulated second (exponential gaps).
            ``0.0`` materializes to an empty schedule without drawing any
            randomness.
        horizon: faults are generated in ``[0, horizon)`` seconds.
        seed: seed of the process's private RNG.
        mean_downtime_s: mean repair time; each fault heals after an
            exponentially distributed downtime (min 1e-3 s). ``None``
            makes every fault permanent.
        switch_fault_prob: probability a fault takes down a whole randomly
            chosen switch instead of a single link. Defaults to link-only,
            which keeps repairs routable on path-diverse fabrics.
    """

    def __init__(self, rate: float, horizon: float, seed: int = 0,
                 mean_downtime_s: float | None = 20.0,
                 switch_fault_prob: float = 0.0):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if mean_downtime_s is not None and mean_downtime_s <= 0:
            raise ValueError("mean_downtime_s must be positive or None")
        if not 0.0 <= switch_fault_prob <= 1.0:
            raise ValueError("switch_fault_prob must be in [0, 1]")
        self.rate = rate
        self.horizon = horizon
        self.seed = seed
        self.mean_downtime_s = mean_downtime_s
        self.switch_fault_prob = switch_fault_prob

    def materialize(self, network) -> FaultSchedule:
        """Draw the fault timeline for ``network``.

        Targets are drawn from the network's switch-switch links (host
        access links are never failed — a failed access link makes its
        host's repair flows permanently unplaceable) and, for switch
        faults, from switches with at least one switch-switch link.
        Deterministic: same seed + same topology → same schedule.
        """
        if self.rate == 0.0 or self.horizon == 0.0:
            return FaultSchedule([])
        links = network.switch_links()
        if not links:
            return FaultSchedule([])
        switches = sorted({u for u, _ in links} | {v for _, v in links})
        rng = random.Random(self.seed)
        specs: list[FaultSpec] = []
        t = rng.expovariate(self.rate)
        while t < self.horizon:
            heal_at = None
            if self.mean_downtime_s is not None:
                heal_at = t + max(1e-3,
                                  rng.expovariate(1.0 / self.mean_downtime_s))
            if (self.switch_fault_prob > 0.0
                    and rng.random() < self.switch_fault_prob):
                specs.append(SwitchFault(switch=rng.choice(switches),
                                         at=t, heal_at=heal_at))
            else:
                u, v = rng.choice(links)
                specs.append(LinkFault(u=u, v=v, at=t, heal_at=heal_at))
            t += rng.expovariate(self.rate)
        return FaultSchedule(specs).materialize(network)

    def attach(self, sim: SimulatorPort) -> "FaultDriver":
        """Wire this process into a simulator run (hook-bus plugin)."""
        driver = FaultDriver(self)
        driver.attach(sim)
        return driver

    def __repr__(self) -> str:
        return (f"FaultProcess(rate={self.rate}, horizon={self.horizon}, "
                f"seed={self.seed})")


class FaultDriver:
    """Hook-bus plugin delivering a fault source's timeline into a run.

    On :class:`~repro.sim.hooks.RunStarted` the driver materializes its
    source against the live network (validating every spec at run start —
    a schedule naming a missing link fails before any event executes),
    builds a :class:`~repro.network.failures.FailureInjector`, and
    schedules one engine callback per fault. Each fault callback injects
    the failure, announces it as :class:`~repro.sim.hooks.FaultInjected`,
    enqueues a repair event for any stranded traffic, schedules the heal,
    and kicks a round check — exactly the order the pre-refactor monolith
    used, so engine sequence numbers (and therefore results) are
    byte-identical.
    """

    def __init__(self, source: "FaultSchedule | FaultProcess"):
        self._source = source
        self._sim: SimulatorPort | None = None
        self._injector: FailureInjector | None = None

    def attach(self, sim: SimulatorPort) -> None:
        """Subscribe to the simulator's hook bus (called by the source)."""
        self._sim = sim
        sim.hooks.subscribe(RunStarted, self._on_run_started)

    # ------------------------------------------------------------ internals

    def _on_run_started(self, hook: RunStarted) -> None:
        sim = hook.sim
        self._injector = FailureInjector(sim.network)
        for spec in self._source.materialize(sim.network):
            sim.engine.schedule_callback(
                spec.at, lambda s=spec: self._on_fault(s),
                tag=f"fault:{spec.description}")

    def _on_fault(self, spec: FaultSpec) -> None:
        sim = self._sim
        assert sim is not None and self._injector is not None
        if isinstance(spec, LinkFault):
            record = self._injector.fail_link(
                spec.u, spec.v, both_directions=spec.both_directions)
        else:
            record = self._injector.fail_switch(spec.switch)
        sim.hooks.emit(FaultInjected(
            now=sim.now, description=record.description,
            stranded_flows=len(record.stranded),
            stranded_demand=record.stranded_demand))
        if record.stranded:
            # Stranded flows (background traffic or mid-transmission
            # update flows) become a repair event competing in the
            # ordinary update queue, per the paper's framing of failure
            # recovery as just another update-event source. Permanent
            # background flows carry no finite duration of their own,
            # so replacements always get the configured one.
            repair = repair_event(
                record, arrival_time=sim.now,
                duration=sim.config.repair_flow_duration)
            sim.enqueue(repair, origin="repair")
        if spec.heal_at is not None:
            sim.engine.schedule_callback(
                spec.heal_at, lambda r=record: self._on_heal(r),
                tag=f"heal:{spec.description}")
        # Re-check the queue: capacity loss cannot unblock anything,
        # but if this fault was the last pending engine event the run
        # must fall through to stall handling instead of draining with
        # events still queued.
        sim.schedule_round()

    def _on_heal(self, record: FailureRecord) -> None:
        sim = self._sim
        assert sim is not None and self._injector is not None
        self._injector.heal(record)
        sim.hooks.emit(FaultHealed(now=sim.now,
                                   description=record.description))
        # Restored capacity may make queued events feasible again.
        sim.schedule_round()


def build_fault_source(spec: dict | None):
    """Build a fault source from a JSON-serializable spec (worker cells).

    ``None`` / ``{}`` → None; otherwise the spec's keys are
    :class:`FaultProcess` kwargs.
    """
    if not spec:
        return None
    return FaultProcess(**spec)
