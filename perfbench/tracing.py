"""Span recording from outside the program, and per-layer aggregation.

The benchmark times calls into each layer's public functions without
touching ``src/``: :func:`instrument` swaps wrappers onto the classes,
instances and module names the program resolves at call time, records one
span per call in flat in-memory columns (``perf_counter_ns``), and puts
every original back on exit. :meth:`Tracer.aggregate` folds the spans into
per-name call counts, busy time (outermost spans of a name only, so a
recursive or re-entrant call is not counted twice) and self time (a span's
duration minus the time its direct children cover).
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator


class Tracer:
    """Records nested spans in flat columns; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._note = array("q")
        self._failed = array("b")
        self._outer = array("b")
        self._stack: list[int] = []
        self._active: list[int] = []

    def __len__(self) -> int:
        return len(self._name)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, fn: Callable[..., Any], name: str | Callable[..., str], *,
             delta: Callable[[Any], int] | None = None) -> Callable[..., Any]:
        """A wrapper around ``fn`` recording one span per call.

        ``name`` is a span name or a function of the call's arguments.
        ``delta(args[0])`` is sampled before and after the call and the
        difference stored as the span's note (e.g. cache growth = misses).
        A call that raises is recorded with ``failed`` set.
        """
        static = None if callable(name) else self.intern(name)
        name_of = name if callable(name) else None
        stack, active = self._stack, self._active
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        notes, failed, outer = self._note, self._failed, self._outer
        intern = self.intern

        def traced(*args: Any, **kwargs: Any) -> Any:
            nid = static if name_of is None else intern(name_of(*args))
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(1 if active[nid] == 0 else 0)
            notes.append(0)
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            active[nid] += 1
            before = delta(args[0]) if delta is not None else 0
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                active[nid] -= 1
                stack.pop()
            if delta is not None:
                notes[idx] = delta(args[0]) - before
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s``, ``note``,
        ``failures``. Children are direct children only; spans never
        overlap their siblings (the run is single-threaded)."""
        count = len(self._name)
        child_ns = [0] * count
        for idx in range(count):
            parent = self._parent[idx]
            if parent >= 0:
                child_ns[parent] += self._end[idx] - self._start[idx]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "note": 0,
                      "failures": 0} for name in self.names}
        busy = [0] * len(self.names)
        own = [0] * len(self.names)
        for idx in range(count):
            nid = self._name[idx]
            row = out[self.names[nid]]
            duration = self._end[idx] - self._start[idx]
            row["calls"] += 1
            row["note"] += self._note[idx]
            row["failures"] += self._failed[idx]
            own[nid] += duration - child_ns[idx]
            if self._outer[idx]:
                busy[nid] += duration
        for nid, name in enumerate(self.names):
            out[name]["busy_s"] = busy[nid] / 1e9
            out[name]["self_s"] = own[nid] / 1e9
        return out

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed), times in
        ns relative to the first span's start."""
        origin = self._start[0] if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for idx in range(len(self)):
                out.write(
                    f'{{"id":{idx},"parent":{self._parent[idx]},'
                    f'"name":"{self.names[self._name[idx]]}",'
                    f'"start_ns":{self._start[idx] - origin},'
                    f'"end_ns":{self._end[idx] - origin},'
                    f'"note":{self._note[idx]},'
                    f'"failed":{self._failed[idx]}}}\n')


def _callback_name(callback: Any) -> str:
    kind = callback.tag.split(":", 1)[0]
    if kind == "churn":
        return "sim.churn.on_background_finish"
    return f"sim.engine.{kind}"


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's layer entry points for the duration of a block.

    Classes whose methods are never reached through ``super()`` are
    patched once on the class; functions a module imports by name are
    patched under every name a ``repro`` module binds them to, so the
    call resolves to the wrapper whichever module makes it. The scheduler
    is wrapped per instance by :func:`wrap_instance` (P-LMTF's ``select``
    reaches LMTF's through ``super()``, so class patches would count a
    round twice).
    """
    from repro.core import compile as compile_mod
    from repro.core import ioutil
    from repro.core.executor import PlanExecutor
    from repro.core.migration import MigrationPlanner
    from repro.core.planner import EventPlanner
    from repro.network.network import Network
    from repro.network.routing.provider import PathProvider
    from repro.sim import service  # noqa: F401  (patch its imported names)
    from repro.sim import snapshot
    from repro.sim.audit import LifecycleAuditor
    from repro.sim.engine import TaggedCallback
    from repro.sim.hooks import HookBus
    from repro.sim.journal import JournalWriter
    from repro.sim.pipeline import RoundPipeline
    from repro.traces.background import BackgroundLoader

    methods: list[tuple[type, str, Any, Callable[[Any], int] | None]] = [
        (BackgroundLoader, "load_to_utilization",
         "traces.background.load_to_utilization", None),
        (BackgroundLoader, "best_path", "traces.background.best_path", None),
        (Network, "average_utilization",
         "network.network.average_utilization", None),
        (PathProvider, "paths", "network.routing.provider.paths",
         lambda provider: provider.cache_size()),
        (RoundPipeline, "maybe_round", "sim.pipeline.maybe_round",
         lambda pipeline: pipeline.round_count),
        (EventPlanner, "plan_event", "core.planner.plan_event", None),
        (MigrationPlanner, "make_room", "core.migration.make_room", None),
        (PlanExecutor, "execute", "core.executor.execute", None),
        (JournalWriter, "append", "sim.journal.append",
         lambda journal: journal.size),
        (HookBus, "emit", "sim.hooks.emit", None),
        (LifecycleAuditor, "audit", "sim.audit.audit", None),
        (TaggedCallback, "__call__", _callback_name, None),
    ]
    functions = [
        (compile_mod, "compile_plan", "core.compile.compile_plan"),
        (snapshot, "build_checkpoint", "sim.snapshot.build_checkpoint"),
        (ioutil, "atomic_write_text", "core.ioutil.atomic_write_text"),
    ]
    patches: list[tuple[Any, str, Any]] = []
    try:
        for cls, attr, name, delta in methods:
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(original, name, delta=delta))
        for home, attr, name in functions:
            original = getattr(home, attr)
            wrapped = tracer.wrap(original, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original):
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def wrap_instance(tracer: Tracer, obj: Any, attr: str, name: str) -> None:
    """Shadow ``obj.attr`` with a traced wrapper of its bound method."""
    setattr(obj, attr, tracer.wrap(getattr(obj, attr), name))
