"""ppl benchmark: seeded closed-loop workloads with verdict-checked metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

Run from the root of a checkout; the program is imported from ``src/``.
One client issues queries in a closed loop (no threads): each waits for the
previous verdict.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs one round untraced and the same round
traced, and reports the per-layer metrics of `tracer` plus the tracing
overhead.  The last line of output is one JSON object; the process exits
non-zero when any verdict is wrong.  Without ``--workload`` every workload
runs in its own interpreter, and a traced run is made twice per workload to
check that every count repeats exactly.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_REPEATS = 3
# A shared host's speed swings by up to 2x over seconds with other tenants'
# load.  Every timed span is bracketed by a fixed probe loop and scaled to
# the speed at which the probe takes PROBE_REF_S (about the fast phases of
# the 2.1 GHz VM the benchmark was tuned on).
PROBE_REF_S = 0.003
WORKLOADS = ["lottery", "implication_chain", "rule_ladder", "cli_oneshot"]

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ppl", "__init__.py")):
        sys.exit(f"perfbench: no ppl sources under {src}; run from a repository checkout")
    sys.path[:0] = [src, HERE]
    import ppl
    if not os.path.abspath(ppl.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ppl from {ppl.__file__}, not from {src}")


def probe() -> float:
    """Seconds a fixed loop of dict, tuple and hash work takes right now."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + 1
        acc += hash((k, i & 7)) & 3
    return perf_counter() - start


def at_ref_speed(wall: float, before: float, after: float) -> float:
    """A span's wall seconds at the reference probe speed, from the probes
    taken just before and just after it."""
    return wall * PROBE_REF_S * 2 / (before + after)


def scaled(work, *args):
    """(result, wall seconds, seconds at the reference probe speed) of work(*args)."""
    before = probe()
    t = perf_counter()
    result = work(*args)
    wall = perf_counter() - t
    return result, wall, at_ref_speed(wall, before, probe())


@dataclass
class Record:
    label: str
    ref_key: tuple
    latency: float  # wall seconds
    scaled: float  # seconds at the reference probe speed
    outcome: object
    error: str | None  # exception type name, when the query raised
    wrong: str | None = None  # set by verify(), when the verdict is wrong


def run_round(wl, items, records: list, tracer=None) -> float:
    """Issue the round's queries one after another; returns its wall time.

    Each query is bracketed by probes; the probe after one query is the
    probe before the next.
    """
    start = perf_counter()
    before = probe()
    for qi, item in enumerate(items):
        if tracer is not None:
            tracer.query_id = qi
        t = perf_counter()
        try:
            outcome, error = wl.run(item), None
        except Exception as e:  # a failed query is counted, and the loop goes on
            outcome, error = None, type(e).__name__
        wall = perf_counter() - t
        after = probe()
        records.append(Record(item.label, item.ref_key, wall,
                              at_ref_speed(wall, before, after), outcome, error))
        before = after
    return perf_counter() - start


def verify(wl, records: list[Record]) -> list[str]:
    """Mark the records whose verdict is wrong; returns them as
    'query: problem' lines."""
    for r in records:
        if r.error is None:
            r.wrong = wl.check(r, r.outcome)
    return [f"{r.label}: {r.wrong}" for r in records if r.wrong is not None]


def failed(records: list[Record]) -> int:
    """Queries that raised or gave a wrong verdict."""
    return sum(r.error is not None or r.wrong is not None for r in records)


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many lie above it."""
    rank = max(1, math.ceil(p * len(values)))
    return values[rank - 1], len(values) - rank


def measure(wl, seconds: float):
    """Repeat (set up, run one round), at least MIN_REPEATS times and until
    the rounds have taken `seconds`."""
    setup, reps = [], []
    built = None
    while len(reps) < MIN_REPEATS or sum(wall for wall, _ in reps) < seconds:
        built = None
        built, _, setup_s = scaled(wl.build, len(reps))
        setup.append(setup_s)
        wl.adopt(built)
        records: list[Record] = []
        reps.append((run_round(wl, wl.items(built, len(reps)), records), records))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return setup, reps, rss_mb


def end_to_end(setup, reps, rss_mb) -> tuple[dict, list[str]]:
    """End-to-end metrics over all rounds of the run, at the reference probe
    speed, and the lines that explain them."""
    records = [r for _, rs in reps for r in rs]
    n = len(records)
    raised = sum(r.error is not None for r in records)
    bad = failed(records)
    busy = sum(r.scaled for r in records)
    # A query that raised misses any latency limit: it sorts above every
    # success and, if a percentile lands on it, reads as a whole round.
    lat = sorted(math.inf if r.error else r.scaled * 1000 for r in records)
    p50, _ = percentile(lat, 0.5)
    p90, above = percentile(lat, 0.9)
    round_ms = busy / len(reps) * 1000
    values = {
        "setup_s": statistics.median(setup),
        "queries_per_s": (n - raised) / busy,
        "query_p50_ms": min(p50, round_ms),
        "query_p90_ms": min(p90, round_ms),
        "peak_rss_mb": rss_mb,
    }
    wall = sum(w for w, _ in reps)
    lines = [
        f"  setup_s        {values['setup_s']:12.4f} s      median of {len(setup)} set-ups",
        f"  queries_per_s  {values['queries_per_s']:12.4f} 1/s    {n - raised} completed in"
        f" {len(reps)} rounds",
        f"  query_p50_ms   {values['query_p50_ms']:12.4f} ms     n={n}",
        f"  query_p90_ms   {values['query_p90_ms']:12.4f} ms     n={n}, {above} above",
        f"  fail_ratio     {bad / n:12.4f} ratio  {bad}/{n} failed"
        f" ({raised} raised, {bad - raised} wrong)",
        f"  peak_rss_mb    {values['peak_rss_mb']:12.4f} MB     ru_maxrss",
        f"  times are scaled to the reference probe speed; measured wall times were"
        f" {sum(r.latency for r in records) / busy:.3f}x them ({wall:.3f} s of rounds)",
    ]
    return values, lines


def measure_traced(name: str, seed: int):
    """One round untraced, then the same round traced, from fresh set-ups."""
    import workloads
    from tracer import Tracer

    walls, wrong = [], []
    for tracer in (None, Tracer()):
        wl = workloads.make(name, seed, ROOT, OUT)
        wl.tracer = tracer
        records: list[Record] = []
        if tracer is not None:
            tracer.install()
        try:
            t = perf_counter()
            built = wl.build(0)
            run_round(wl, wl.items(built, 0), records, tracer)
            walls.append(perf_counter() - t)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wl.adopt(built)
        wrong += verify(wl, records)
        del wl, built
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-{seed}.bin"))
    untraced, traced = walls
    return tracer.metrics(traced / untraced), records, wrong, len(tracer.span_layer)


def run_one(args) -> int:
    _import_program()
    import workloads
    from tracer import METRICS

    if args.trace:
        values, records, wrong, spans = measure_traced(args.workload, args.seed)
        units = dict(METRICS)
        lines = [f"  {k:<44} {v:14.6f} {units[k]}" for k, v in values.items()]
        lines.append(f"  {spans} spans written to {os.path.relpath(OUT, ROOT)}/")
    else:
        wl = workloads.make(args.workload, args.seed, ROOT, OUT)
        setup, reps, rss_mb = measure(wl, args.seconds)
        records = [r for _, rs in reps for r in rs]
        wrong = verify(wl, records)
        values, lines = end_to_end(setup, reps, rss_mb)
        units = dict(END_TO_END)
    errors = Counter(r.error for r in records if r.error is not None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} queries, {failed(records)} failed"
          + (f" ({', '.join(f'{k} x{v}' for k, v in sorted(errors.items()))})" if errors else "")
          + f", {len(wrong)} wrong")
    for line in lines:
        print(line)
    for w in wrong:
        print(f"WRONG {w}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed(records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; traced runs are made twice."""
    _import_program()
    from tracer import METRICS

    # Everything but times must repeat exactly between two traced runs.
    exact = [k for k, unit in METRICS if unit != "s" and k != "trace.overhead_ratio"]
    ok = True
    results = {}
    for name in WORKLOADS:
        runs = []
        for _ in range(2 if args.trace else 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"workload {name}: exit code {proc.returncode}")
                ok = False
                break
            runs.append(json.loads(lines[-1]))
        if len(runs) == 2:
            first, second = (r["metrics"] for r in runs)
            differ = [k for k in exact if first[k]["value"] != second[k]["value"]]
            print(f"  counts of two traced runs: "
                  + (f"DIFFER in {', '.join(differ)}" if differ else "identical"))
            ok = ok and not differ
        if runs:
            results[name] = runs[0]
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Set iteration order follows the string hash seed, and it changes how
    # much work and memory the resolution closure takes (up to 1.6x on the
    # 5-lottery), so runs use one fixed hash seed: a seed names a whole run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
