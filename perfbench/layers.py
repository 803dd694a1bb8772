"""Per-layer metrics of a traced run: names, units, and how to compute them.

Each metric is ``<module>.<function>.<stat>``. Span statistics come from
:meth:`tracing.Tracer.aggregate`; the probe-cache and stage counts come
from the counters the program keeps itself (summed round logs and the
metrics collector), gathered by the workload.
"""

from __future__ import annotations

#: stat -> (unit, better)
_STATS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "misses": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "rounds": ("count", "higher"),
    "failures": ("count", "lower"),
    "bytes": ("B", "lower"),
    "stages": ("count", "lower"),
    "hits": ("count", "higher"),
    "invalidations": ("count", "lower"),
}

#: span name -> the stats reported for it.
SPAN_STATS: dict[str, tuple[str, ...]] = {
    "traces.background.load_to_utilization": ("busy_s",),
    "traces.background.best_path": ("calls", "busy_s", "self_s"),
    "network.network.average_utilization": ("calls", "busy_s"),
    "network.routing.provider.paths": ("calls", "misses", "hit_ratio",
                                       "busy_s"),
    "sim.churn.on_background_finish": ("calls", "busy_s", "self_s"),
    "sim.pipeline.maybe_round": ("calls", "rounds", "busy_s", "self_s"),
    "sched.select": ("calls", "busy_s", "self_s"),
    "core.planner.plan_event": ("calls", "busy_s", "self_s"),
    "core.migration.make_room": ("calls", "busy_s"),
    "core.compile.compile_plan": ("calls", "busy_s"),
    "core.executor.execute": ("calls", "busy_s", "self_s", "failures"),
    "sim.journal.append": ("calls", "busy_s", "bytes"),
    "sim.snapshot.build_checkpoint": ("calls", "busy_s"),
    "core.ioutil.atomic_write_text": ("calls", "busy_s"),
    "sim.hooks.emit": ("calls", "self_s"),
    "sim.audit.audit": ("calls", "busy_s"),
    "sim.engine.arrival": ("calls", "busy_s", "self_s"),
    "sim.engine.round": ("calls", "busy_s", "self_s"),
    "sim.engine.flow-finish": ("calls", "busy_s", "self_s"),
    "sim.engine.service": ("calls", "busy_s", "self_s"),
}

#: metric -> the workload counter it reports.
COUNTER_METRICS = {
    "sched.cache.probe_cache.hits": "probe_cache_hits",
    "sched.cache.probe_cache.misses": "probe_cache_misses",
    "sched.cache.probe_cache.invalidations": "probe_cache_invalidations",
    "core.compile.compile_plan.stages": "total_stages",
}

#: The span note each stat reads (a per-call delta the wrapper records).
_NOTE_STATS = ("misses", "rounds", "bytes")


def metric_specs() -> list[dict[str, str]]:
    """Every per-layer metric as a ``BENCHMARK.json`` ``per_layer`` row."""
    rows = []
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            unit, better = _STATS[stat]
            rows.append({"name": f"{span}.{stat}", "unit": unit,
                         "better": better})
    for name in COUNTER_METRICS:
        unit, better = _STATS[name.rsplit(".", 1)[1]]
        rows.append({"name": name, "unit": unit, "better": better})
    rows.append({"name": "sched.cache.probe_cache.hit_ratio",
                 "unit": "ratio", "better": "higher"})
    rows.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    rows.append({"name": "trace.spans", "unit": "count", "better": "lower"})
    return rows


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def per_layer(aggregate: dict[str, dict[str, float]],
              counters: dict[str, int], overhead_s: float,
              spans: int) -> dict[str, float]:
    """The per-layer metric values of one traced repetition.

    A span that never ran reports zeros (a layer the workload bypasses).
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "note": 0,
             "failures": 0}
    values: dict[str, float] = {}
    for span, stats in SPAN_STATS.items():
        row = aggregate.get(span, empty)
        for stat in stats:
            if stat in _NOTE_STATS:
                value: float = row["note"]
            elif stat == "hit_ratio":
                value = _ratio(row["calls"] - row["note"], row["calls"])
            else:
                value = row[stat]
            values[f"{span}.{stat}"] = value
    for name, counter in COUNTER_METRICS.items():
        values[name] = counters[counter]
    values["sched.cache.probe_cache.hit_ratio"] = _ratio(
        counters["probe_cache_hits"],
        counters["probe_cache_hits"] + counters["probe_cache_misses"])
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = spans
    return values

