"""Run one workload in this (fresh) interpreter and print its result.

    python perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1 [--rounds K]

`run.py` starts this with PYTHONPATH pointing at the checkout's `src/` and
the BLAS/OpenMP thread variables set to 1.  One caller, no threads: each op
runs only after the previous one has finished and been checked.

Trace 0: the first pass over the workload's op list, then whole rounds
again until `--seconds` of wall time have passed.  Latency is timed around
the library calls only; checks and digests run between ops, untimed.

On a shared host the same call runs 1.3-2x slower for seconds to minutes at
a time, so the timings are corrected for the host's speed.  A fixed
calibration, which calls no library code, is timed before every op; each
latency is scaled by CALIBRATION_REF_S over the rolling median of the
calibration times around it (the host factor), which gives seconds at the
reference host's calm speed.  Then each round op's latency is the mean of its scaled
latencies over all its runs in this process.  `op_p50_s` and `op_p90_s` are
percentiles of those per-op means over the round ops, and `ops_per_s` is the
number of round ops over the sum of their means.  The same figures without
the host factor are printed as `raw`.  The pinned ops run once and are
checked but not timed into these.

Trace 1: the first pass twice, untraced and then traced, so the counts
repeat exactly for a seed and `trace.overhead_frac` compares the same ops.
The spans are written to `perfbench/out/` at the end.

`--rounds K` keeps only the first K rounds of the first pass (the self-check).
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads as wls
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
CALIBRATION_KEYS = 2000
CALIBRATION_REF_S = 0.36e-3  # the calibration on a calm 2.1 GHz Xeon (Python 3.11)
HOST_WINDOW = 15             # calibration times in each rolling median


def calibration_s() -> float:
    """Time fixed dict, set and tuple work of the kind the library does,
    calling no library code.  It tracks the host's slow phases better than
    a pure integer loop, which they slow less than the library."""
    t0 = time.perf_counter()
    d = {(i, i * 7 % 13): i for i in range(CALIBRATION_KEYS)}
    s = set(d)
    s ^= set(list(d)[::2])
    return time.perf_counter() - t0


def host_factors(calibration: list[float]) -> list[float]:
    """CALIBRATION_REF_S over the median of the calibration times centred on
    each op; below 1 while the host runs slow."""
    h = HOST_WINDOW // 2
    return [CALIBRATION_REF_S / statistics.median(calibration[max(0, k - h):k + h + 1])
            for k in range(len(calibration))]


class Runner:
    """Runs ops, checks their outputs and keeps the tallies of one pass."""

    def __init__(self, first_digests: list[str] | None, calibrate: bool):
        self.latencies: list[float] = []
        self.indices: list[int] = []      # the op index of each latency
        self.calibrate = calibrate
        self.calibration: list[float] = []   # calibration time before each op
        self.digests: list[str] = []
        self.failed = 0
        self.errors: list[str] = []
        self.first_digests = first_digests   # repeats must reproduce these
        self.out_stats: Counter = Counter()

    def run(self, index: int, op: wls.Op, collect: bool) -> None:
        self.indices.append(index)
        if self.calibrate:
            self.calibration.append(calibration_s())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a failed op is counted, not fatal
            self.latencies.append(time.perf_counter() - t0)
            return self._error(index, op, e)
        self.latencies.append(time.perf_counter() - t0)
        try:
            canon, problems, stats = op.check(out)
        except Exception as e:
            return self._error(index, op, e)
        d = wls.digest(canon)
        self.digests.append(d)
        if self.first_digests is not None and d != self.first_digests[index]:
            problems.append(f"digest {d} != {self.first_digests[index]}")
        if problems:
            self._fail(f"op {index} ({op.kind}): " + "; ".join(problems))
        if collect:
            self.out_stats.update(stats)

    def _error(self, index: int, op: wls.Op, e: Exception) -> None:
        self.digests.append("error")
        self._fail(f"op {index} ({op.kind}) raised {type(e).__name__}: {e}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def timing_metrics(runs: dict[int, list[float]]) -> dict:
    lat = sorted(statistics.fmean(times) for times in runs.values())
    return {"ops_per_s": len(lat) / sum(lat), "op_p50_s": statistics.median(lat),
            "op_p90_s": percentile(lat, 90)}


def committed_digests(workload: str, seed: int) -> list[str] | None:
    path = HERE / "digests.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"].get(workload, {}).get("ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0)
    args = ap.parse_args(argv)

    wl = wls.WORKLOADS[args.workload](args.seed)
    if args.rounds:
        wl.rounds = wl.rounds[:args.rounds]
    first = wl.first_pass()
    in_stats = sum((op.stats for op in first), Counter())

    want = committed_digests(args.workload, args.seed)
    if want is not None and len(want) < len(first):
        sys.exit(f"digests.json holds {len(want)} ops of {args.workload}, the first pass "
                 f"has {len(first)}; rewrite it with run.py --update-digests")
    first_pass = Runner(want[:len(first)] if want else None, calibrate=args.trace == 0)
    t_start = time.perf_counter()
    for i, op in enumerate(first):
        first_pass.run(i, op, collect=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "digests": first_pass.digests,
              "digest": wls.digest(tuple(first_pass.digests)),
              "checked_against_committed": want is not None,
              "inputs": dict(sorted(in_stats.items())),
              "outputs": dict(sorted(first_pass.out_stats.items()))}

    repeat = Runner(first_pass.digests, calibrate=args.trace == 0)
    if args.trace == 0:
        base, size = len(wl.pinned), len(wl.rounds[0])
        r = 0
        while not args.rounds and time.perf_counter() - t_start < args.seconds:
            for j, op in enumerate(wl.rounds[r % len(wl.rounds)]):
                repeat.run(base + (r % len(wl.rounds)) * size + j, op, collect=False)
            r += 1
        factors = host_factors(first_pass.calibration + repeat.calibration)
        runs: dict[int, list[float]] = {}
        runs_raw: dict[int, list[float]] = {}
        for i, t, f in zip(first_pass.indices + repeat.indices,
                           first_pass.latencies + repeat.latencies, factors):
            if i >= base:
                runs.setdefault(i, []).append(t * f)
                runs_raw.setdefault(i, []).append(t)
        metrics = timing_metrics(runs)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["raw"] = timing_metrics(runs_raw)
        result["host_factor"] = statistics.median(factors)
        result["samples"] = len(runs)
        result["runs_per_op"] = (len(factors) - base) / len(runs)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            for i, op in enumerate(first):
                tracer.op = i
                repeat.run(i, op, collect=False)
        finally:
            tracer.restore()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = sum(repeat.latencies) / sum(first_pass.latencies) - 1
        metrics = {m: metrics[m] for m in LAYER_METRICS}
        result["samples"] = len(repeat.latencies)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": metrics,
             "inputs": result["inputs"], "outputs": result["outputs"],
             "span_fields": ["name", "start_s", "end_s", "parent", "op"],
             "spans": tracer.dump()}))
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))

    result["attempted"] = len(first_pass.latencies) + len(repeat.latencies)
    result["failed"] = first_pass.failed + repeat.failed
    result["errors"] = first_pass.errors + repeat.errors
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
