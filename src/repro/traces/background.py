"""Load background traffic until the network reaches a target utilization.

Paper §V-A: "we inject a large amount of traffic into the Fat-Tree datacenter
as background traffic, so that the network utilization grows up to 70%". The
loader draws flows from a trace generator and greedily places each on its
best feasible path, stopping when the average switch-link utilization reaches
the target (or no more flows fit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow, FlowKind
from repro.network.link import EPS
from repro.network.network import Network
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.provider import PathProvider
from repro.traces.base import TraceGenerator

#: Absolute slack on the loader's utilization bound, also its relative
#: inflation per placement. Float error in the exact mean (a 512-term sum)
#: is ~1e-13, far below it.
_BOUND_SLACK = 1e-9


@dataclass
class LoadReport:
    """Outcome of a background-loading run.

    Attributes:
        placed: flows successfully placed, in placement order.
        rejected: how many sampled flows found no feasible path and were
            dropped (rises sharply near high utilization — this is exactly
            the effect the paper's Fig. 1 measures).
        utilization: average switch-link utilization reached.
    """

    placed: list[Flow]
    rejected: int
    utilization: float


class BackgroundLoader:
    """Greedy best-fit loader of trace flows into a network.

    Args:
        network: live network to load.
        provider: candidate-path lookup for the network's topology.
        trace: flow generator to draw from.
        rng: randomness for path tiebreaks (independent of the trace's RNG
            so loading policy changes do not perturb the trace).
    """

    PATH_POLICIES = ("random", "best")

    def __init__(self, network: Network, provider: PathProvider,
                 trace: TraceGenerator, rng: random.Random | None = None,
                 host_link_cap: float = 0.9, path_policy: str = "random"):
        if not 0.0 < host_link_cap <= 1.0:
            raise ValueError("host_link_cap must be in (0, 1]")
        if path_policy not in self.PATH_POLICIES:
            raise ValueError(f"unknown path policy {path_policy!r}; "
                             f"pick one of {self.PATH_POLICIES}")
        if network.link_table() is not provider.link_table():
            raise ValueError("network and provider must share one topology "
                             "graph (their link tables differ)")
        self._network = network
        self._provider = provider
        self._trace = trace
        self._rng = rng or random.Random(0)
        self._host_link_cap = host_link_cap
        self._path_policy = path_policy

    @property
    def rng(self) -> random.Random:
        """The loader's path-tiebreak RNG (checkpointed by the crash-
        recovery snapshots so respawn placement resumes exactly)."""
        return self._rng

    @property
    def host_link_cap(self) -> float:
        """Maximum utilization background traffic may impose on host access
        links (the first and last hop of every path).

        Unlike fabric links, a host's access link appears on *every* path of
        that host's flows, so traffic on it can never be migrated away
        (paper Definition 1 has no alternate path to offer). The default cap
        of 0.9 leaves at least 100 Mbit/s of access headroom per host, which
        together with the event generator's per-host demand cap (also
        100 Mbit/s by default) guarantees update events remain placeable at
        every utilization level the paper evaluates (50–90%).
        """
        return self._host_link_cap

    def load_to_utilization(self, target: float, permanent: bool = True,
                            max_rejects: int = 2000,
                            max_flows: int = 100000) -> LoadReport:
        """Place flows until average switch-link utilization >= ``target``.

        The loop stops at the first flow after which the exact
        :meth:`Network.average_utilization` reaches ``target``, but only
        evaluates it when it might have: between evaluations it tracks an
        upper bound — the last exact value plus each placement's
        ``Σ demand/cap`` over its switch links divided by the pool size,
        inflated by :data:`_BOUND_SLACK` — and while ``bound + _BOUND_SLACK <
        target`` the exact mean (whose float error is orders of magnitude
        smaller than the slack) cannot have reached the target either.

        Args:
            target: desired average utilization in ``[0, 1)``.
            permanent: when True the placed flows have no duration (static
                background); when False they carry trace durations and the
                simulator may churn them.
            max_rejects: give up after this many consecutive unplaceable
                flows (the network is saturated for this trace's demands).
            max_flows: absolute cap on placed flows.

        Returns:
            A :class:`LoadReport`; ``utilization`` may fall short of the
            target if the network saturates first.
        """
        if not 0.0 <= target < 1.0:
            raise ValueError(f"target utilization must be in [0, 1), "
                             f"got {target}")
        network = self._network
        switch_idx = network.link_table().switch_idx
        is_switch = bytearray(len(network.link_table()))
        for i in switch_idx:
            is_switch[i] = 1
        pool = len(switch_idx) or 1  # no switch links: the mean stays 0
        placed: list[Flow] = []
        rejected = 0
        consecutive_rejects = 0
        bound = network.average_utilization()
        exact: float | None = bound
        while len(placed) < max_flows:
            if bound + _BOUND_SLACK >= target:
                if exact is None:
                    exact = bound = network.average_utilization()
                if exact >= target:
                    break
            flow = self._trace.sample_flow(kind=FlowKind.BACKGROUND,
                                           permanent=permanent)
            path = self.best_path(flow)
            if path is None:
                rejected += 1
                consecutive_rejects += 1
                if consecutive_rejects >= max_rejects:
                    break
                continue
            try:
                network.place(flow, path)
            except InsufficientBandwidthError:
                # best_path checks bandwidth; a switch rule table may still
                # reject the placement on rule-limited networks.
                rejected += 1
                consecutive_rejects += 1
                if consecutive_rejects >= max_rejects:
                    break
                continue
            consecutive_rejects = 0
            placed.append(flow)
            assert path.link_idx is not None  # provider paths carry them
            cap, demand, rise = network.capacity_col(), flow.demand, 0.0
            for i in path.link_idx:
                if is_switch[i] and cap[i] > 0:
                    rise += demand / cap[i]
            bound += rise / pool * (1.0 + _BOUND_SLACK)
            exact = None
        if exact is None:
            exact = network.average_utilization()
        return LoadReport(placed=placed, rejected=rejected,
                          utilization=exact)

    def best_path(self, flow: Flow) -> CandidatePath | None:
        """A feasible path for ``flow``, or None.

        With the default ``random`` policy a uniformly random feasible
        candidate is chosen, modelling ECMP hashing (and leaving the
        utilization variance across links that real hashing produces — the
        congested links that update events then have to migrate around).
        The ``best`` policy picks the largest bottleneck residual instead,
        giving a near-perfectly balanced, lower-variance background.

        Paths whose host access links would exceed ``host_link_cap`` are
        rejected even when raw capacity remains (see :attr:`host_link_cap`).

        Candidates are scored on the provider's link indices straight off
        the state columns; only the chosen one is materialized (interned,
        so it is the same object :meth:`PathProvider.paths` returns).
        """
        routes = self._provider.routes(flow.src, flow.dst)
        cap, used = self._network.capacity_col(), self._network.used_col()
        demand, host_cap = flow.demand, self._host_link_cap
        feasible: list[tuple[float, int]] = []
        for k, inner in enumerate(routes.inner_idx):
            up, down = routes.up_idx[k], routes.down_idx[k]
            residual = cap[up] - used[up]
            for i in inner:
                res = cap[i] - used[i]
                if res < residual:
                    residual = res
            res = cap[down] - used[down]
            if res < residual:
                residual = res
            if residual + EPS < demand:
                continue
            if (used[up] + demand > host_cap * cap[up]
                    or used[down] + demand > host_cap * cap[down]):
                continue
            feasible.append((residual, k))
        if not feasible:
            return None
        if self._path_policy == "random":
            return routes.candidate(self._rng.choice(feasible)[1])
        best_residual = max(r for r, __ in feasible)
        choices = [k for r, k in feasible if r >= best_residual - EPS]
        return routes.candidate(self._rng.choice(choices))

    def would_fit(self, flow: Flow) -> bool:
        """Feasibility probe without placement (Fig. 1's success test)."""
        return self.best_path(flow) is not None
