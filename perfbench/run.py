#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator and service, end to end and per
layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6-cell --seed 0 --seconds 60 \
        --trace 0

Runs one workload (``fig6-cell`` or ``serve-durable``, see
``perfbench/README.md``). Each repetition runs in a fresh child process;
repetitions cycle over ``INPUTS`` inputs derived from ``--seed`` and go on
until ``--seconds`` would be exceeded, at least once per input plus one
repeat of the first input, whose outputs must match. Times are medians
over the repetitions; rates divide the work of all repetitions by their
summed run time. At the default seed
the outputs must also match ``pins.json``. With ``--trace 0`` the last
stdout line is a JSON object with every end-to-end metric; with
``--trace 1`` one untraced and one traced repetition of the first input
give every per-layer metric and the tracing overhead (their outputs must
match too), and the spans are written to ``perfbench/out/``.

Exit status: 0 with a result line; 1 with a result line whose ``correct``
is false; 2 without a result when the program cannot be imported or a
repetition crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import layers
import stats

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
#: Distinct inputs per run (averaging over inputs keeps a run's figures
#: close across seeds).
INPUTS = 5
MIN_REPS = INPUTS + 1
MAX_REPS = 4 * INPUTS
#: A run must end within 180 s; leave room for start-up and reporting.
RUN_DEADLINE_S = 170.0
#: Environment knobs that would change what the program does or checks.
SCRUBBED_ENV = ("REPRO_AUDIT", "REPRO_CRASH_AT")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "rounds_per_s": "1/s",
    "engine_events_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("fig6-cell", "serve-durable")


class CrashError(RuntimeError):
    """A repetition died without a record."""


def input_seeds(seed: int) -> list[int]:
    return [seed * INPUTS + j for j in range(INPUTS)]


# ------------------------------------------------------------------ child

def child(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    """Run one repetition in this process and return its record."""
    import tracing
    from workloads import WORKLOADS

    fn = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    record: dict[str, Any]
    try:
        if traced:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                rep = fn(seed, tracer=tracer, scratch=OUT)
            record = rep.verify().to_dict()
            record["aggregate"] = tracer.aggregate()
            record["spans"] = len(tracer)
            tracer.write_jsonl(
                str(OUT / f"spans-{workload}-{seed}.jsonl.gz"))
        else:
            record = fn(seed, scratch=OUT).verify().to_dict()
    except Exception:  # noqa: BLE001 - reported as a failed repetition
        record = {"crash": traceback.format_exc()}
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def run_child(workload: str, seed: int, traced: bool,
              deadline: float) -> dict[str, Any]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--child-seed", str(seed),
           "--trace", str(int(traced))]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=HERE.parent, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise CrashError(f"{workload} seed {seed}: no result within "
                         f"{timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CrashError(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- checks

def load_pins() -> dict[str, Any]:
    return json.loads(PINS.read_text())


def gate(workload: str, seed: int, reps: list[tuple[int, dict]],
         pins: dict[str, Any]) -> list[str]:
    """Correctness errors of a run: repetition errors, repetitions of one
    input that disagree, and (at the default seed) outputs off the pins."""
    errors: list[str] = []
    first: dict[int, dict] = {}
    for input_seed, record in reps:
        if "crash" in record:
            errors.append(f"input {input_seed} crashed:\n{record['crash']}")
            continue
        errors.extend(f"input {input_seed}: {e}" for e in record["errors"])
        outputs = record["outputs"]
        if input_seed not in first:
            first[input_seed] = outputs
        elif outputs != first[input_seed]:
            errors.append(f"input {input_seed}: repetitions disagree: "
                          f"{first[input_seed]} vs {outputs}")
    if seed == DEFAULT_SEED:
        pinned = pins[workload]
        for input_seed, outputs in first.items():
            want = pinned.get(str(input_seed))
            if outputs != want:
                errors.append(f"input {input_seed}: outputs {outputs} "
                              f"differ from pin {want}")
    return errors


# --------------------------------------------------------------- metrics

def end_to_end(reps: list[tuple[int, dict]]) -> tuple[dict[str, float],
                                                       str]:
    """Set-up, run time and peak RSS are medians over the repetitions.
    The rates divide the work of every repetition by their summed run
    time, so each input counts by its work rather than by one rank.
    Round times pool every repetition's rounds; the tail percentile is
    fixed by the rounds of the first repetition of each input (a count
    the seed determines), so at least ``stats.TAIL_BEYOND`` pooled
    samples always lie beyond it."""
    if any("crash" in record for _, record in reps):
        return {name: 0.0 for name in END_TO_END}, "a repetition crashed"
    records = [record for _, record in reps]
    run_total = sum(r["run_s"] for r in records)
    values = {name: statistics.median(r[name] for r in records)
              for name in ("setup_s", "run_s", "peak_rss_mb")}
    for name, work in (("events_per_s", "events"),
                       ("rounds_per_s", "rounds"),
                       ("engine_events_per_s", "engine_events")):
        values[name] = sum(r[work] for r in records) / run_total
    first_count: dict[int, int] = {}
    pooled: list[float] = []
    for input_seed, record in reps:
        first_count.setdefault(input_seed, len(record["round_ms"]))
        pooled.extend(record["round_ms"])
    pct = stats.tail_percentile(sum(first_count.values()))
    if pct is None:
        raise CrashError(f"too few rounds ({len(pooled)}) for a tail")
    pooled.sort()
    values["round_ms_p50"] = statistics.median(pooled)
    values["round_ms_tail"] = stats.nearest_rank(pooled, pct)
    return values, f"round_ms_tail is p{pct} of {len(pooled)} rounds"


def result_line(correct: bool, reps: list[tuple[int, dict]],
                values: dict[str, float], units: dict[str, str]) -> str:
    ok = [r for _, r in reps if "crash" not in r]
    return json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in ok)),
        "failed": sum(r["failed"] for r in ok),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


# ------------------------------------------------------------------ modes

def timed_run(workload: str, seed: int, seconds: int,
              deadline: float) -> tuple[list[tuple[int, dict]], list[str]]:
    seeds = input_seeds(seed)
    reps: list[tuple[int, dict]] = []
    started = time.monotonic()
    while len(reps) < MAX_REPS:
        elapsed = time.monotonic() - started
        # Stop when one more repetition of average length would overrun.
        if len(reps) >= MIN_REPS and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        input_seed = seeds[len(reps) % INPUTS]
        record = run_child(workload, input_seed, False, deadline)
        reps.append((input_seed, record))
        if "crash" in record:
            break
    return reps, [f"{len(reps)} repetitions in "
                  f"{time.monotonic() - started:.1f} s"]


def traced_run(workload: str, seed: int, deadline: float,
               ) -> tuple[list[tuple[int, dict]], dict[str, float],
                          dict[str, str]]:
    input_seed = input_seeds(seed)[0]
    plain = run_child(workload, input_seed, False, deadline)
    traced = run_child(workload, input_seed, True, deadline)
    reps = [(input_seed, plain), (input_seed, traced)]
    units = {m["name"]: m["unit"] for m in layers.metric_specs()}
    if "crash" in plain or "crash" in traced:
        return reps, {name: 0.0 for name in units}, units
    values = layers.per_layer(traced["aggregate"], traced["counters"],
                              traced["run_s"] - plain["run_s"],
                              traced["spans"])
    return reps, values, units


def self_check(workload: str, seed: int, **sizes: Any) -> list[str]:
    """Run one input twice in this process; the outputs must match (the
    id-counter drift :func:`hermetic_ids` prevents would show here)."""
    from workloads import WORKLOADS

    fn = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    first = fn(seed, scratch=OUT, **sizes).verify()
    second = fn(seed, scratch=OUT, **sizes).verify()
    errors = first.errors + second.errors
    if first.outputs != second.outputs:
        errors.append(f"outputs drifted within one process: "
                      f"{first.outputs} vs {second.outputs}")
    return errors


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-seed", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if not (SRC / "repro").is_dir():
            raise ImportError(f"no package directory {SRC / 'repro'}")
        import repro.experiments.common  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.child_seed is not None:
        print(json.dumps(child(args.workload, args.child_seed,
                               bool(args.trace))))
        return 0

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            reps, values, units = traced_run(args.workload, args.seed,
                                             deadline)
            notes = [f"{name} = {values[name]:.6g} {units[name]}"
                     for name in units]
        else:
            reps, notes = timed_run(args.workload, args.seed, args.seconds,
                                    deadline)
            values, note = end_to_end(reps)
            notes.append(note)
            units = END_TO_END
    except CrashError as exc:
        print(exc, file=sys.stderr)
        return 2
    errors = gate(args.workload, args.seed, reps, load_pins())
    for input_seed, record in reps:
        if "crash" not in record:
            print(f"input {input_seed}: setup {record['setup_s']:.3f} s, "
                  f"run {record['run_s']:.3f} s, {record['rounds']} rounds, "
                  f"{record['events']} events, "
                  f"{record['engine_events']} engine events, "
                  f"{record['failed']}/{record['attempted']} failed")
    for line in notes + errors:
        print(line)
    print(result_line(not errors, reps, values, units))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
