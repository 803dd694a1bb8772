"""Unit tests for mid-run fault schedules and the stochastic process."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import diamond_setup  # noqa: E402

from repro.core.exceptions import SimulationError, TopologyError
from repro.sim.faults import (
    FaultProcess,
    FaultSchedule,
    LinkFault,
    SwitchFault,
    build_fault_source,
)


class TestFaultSpecs:
    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            LinkFault(u="s1", v="top", at=-1.0)

    def test_heal_must_follow_fault(self):
        with pytest.raises(SimulationError, match="heal time"):
            LinkFault(u="s1", v="top", at=5.0, heal_at=5.0)
        with pytest.raises(SimulationError, match="heal time"):
            SwitchFault(switch="top", at=5.0, heal_at=2.0)

    def test_descriptions(self):
        assert LinkFault(u="s1", v="top", at=0.0).description == \
            "link s1<->top"
        assert SwitchFault(switch="top", at=0.0).description == "switch top"


class TestFaultSchedule:
    def test_sorted_by_time_insertion_stable(self):
        a = LinkFault(u="s1", v="top", at=5.0)
        b = LinkFault(u="s1", v="bot", at=1.0)
        c = SwitchFault(switch="top", at=5.0)
        schedule = FaultSchedule([a, b, c])
        assert list(schedule) == [b, a, c]

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule([])
        assert len(FaultSchedule([])) == 0

    def test_rejects_non_fault_entries(self):
        with pytest.raises(SimulationError, match="LinkFault or"):
            FaultSchedule([("s1", "top", 5.0)])

    def test_materialize_validates_topology(self):
        net, _ = diamond_setup()
        good = FaultSchedule([LinkFault(u="s1", v="top", at=1.0)])
        assert good.materialize(net) is good
        with pytest.raises(TopologyError, match="missing link"):
            FaultSchedule([LinkFault(u="s1", v="mars", at=1.0)]) \
                .materialize(net)
        with pytest.raises(TopologyError, match="missing switch"):
            FaultSchedule([SwitchFault(switch="mars", at=1.0)]) \
                .materialize(net)


class TestFaultProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProcess(rate=-1.0, horizon=10.0)
        with pytest.raises(ValueError):
            FaultProcess(rate=1.0, horizon=-1.0)
        with pytest.raises(ValueError):
            FaultProcess(rate=1.0, horizon=10.0, mean_downtime_s=0.0)
        with pytest.raises(ValueError):
            FaultProcess(rate=1.0, horizon=10.0, switch_fault_prob=2.0)

    def test_zero_rate_materializes_empty(self):
        net, _ = diamond_setup()
        assert not FaultProcess(rate=0.0, horizon=100.0).materialize(net)
        assert not FaultProcess(rate=1.0, horizon=0.0).materialize(net)

    def test_deterministic_per_seed(self):
        net, _ = diamond_setup()
        one = list(FaultProcess(rate=0.2, horizon=60.0, seed=3)
                   .materialize(net))
        two = list(FaultProcess(rate=0.2, horizon=60.0, seed=3)
                   .materialize(net))
        assert one == two
        other = list(FaultProcess(rate=0.2, horizon=60.0, seed=4)
                     .materialize(net))
        assert one != other

    def test_targets_only_switch_links(self):
        net, _ = diamond_setup()
        table = net.link_table()
        switch_links = {table.ids[i] for i in table.switch_idx}
        assert set(net.switch_links()) == switch_links
        specs = list(FaultProcess(rate=0.5, horizon=120.0, seed=1)
                     .materialize(net))
        assert specs, "a 0.5 faults/s process over 120s drew nothing"
        for spec in specs:
            assert isinstance(spec, LinkFault)
            assert (spec.u, spec.v) in switch_links

    def test_times_within_horizon_and_heals_after(self):
        net, _ = diamond_setup()
        specs = list(FaultProcess(rate=0.5, horizon=60.0, seed=2)
                     .materialize(net))
        for spec in specs:
            assert 0.0 <= spec.at < 60.0
            assert spec.heal_at is not None and spec.heal_at > spec.at

    def test_permanent_faults(self):
        net, _ = diamond_setup()
        specs = list(FaultProcess(rate=0.5, horizon=60.0, seed=2,
                                  mean_downtime_s=None).materialize(net))
        assert specs and all(s.heal_at is None for s in specs)

    def test_switch_faults_drawable(self):
        net, _ = diamond_setup()
        specs = list(FaultProcess(rate=1.0, horizon=60.0, seed=5,
                                  switch_fault_prob=1.0).materialize(net))
        assert specs and all(isinstance(s, SwitchFault) for s in specs)


class TestBuildFaultSource:
    def test_none_and_empty(self):
        assert build_fault_source(None) is None
        assert build_fault_source({}) is None

    def test_builds_process(self):
        source = build_fault_source({"rate": 0.1, "horizon": 50.0,
                                     "seed": 9})
        assert isinstance(source, FaultProcess)
        assert source.rate == 0.1 and source.seed == 9
