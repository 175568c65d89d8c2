"""persimod benchmark: seeded workloads timed end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds 28] [--trace 0|1]
    python3 perfbench/run.py --quick            # self-check: one round of every workload
    python3 perfbench/run.py --update-digests   # rewrite digests.json for the default seed

Run from anywhere; it times the library in `src/` next to this directory
and needs nothing built.  Each workload runs in a fresh interpreter
(`worker.py`), one op at a time, with the BLAS/OpenMP thread variables at 1.
`setup_s` is the median wall time of several fresh interpreters that only
`import persimod`, half started before the workload and half after it.

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones (self times and counts from the span recorder in
`tracer.py`).  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when every op's
output passed its checks, 1 when one did not or a workload crashed, 2 when
the checkout has no `src/persimod` to measure.  See README.md for what each
metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-sublevel", "rips-circle", "barcode-queries", "module-oracle")

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}
SETUP_PROBES = 10
QUICK_ROUNDS = 1
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(probes: int) -> list[float]:
    """Wall times from starting a fresh interpreter to the end of its
    `import persimod`.  The child reads the clock itself (perf_counter is
    system-wide), because waiting on a child with a timeout polls in steps
    of up to 50 ms."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import persimod, time; print(time.perf_counter())"],
            env=child_env(), check=True, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        times.append(float(proc.stdout) - t0)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, rounds: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict) -> None:
    """Human-readable lines for one workload (everything but the last line)."""
    n = res["samples"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    print("  inputs  " + " ".join(f"{k}={v}" for k, v in res["inputs"].items()))
    print("  outputs " + " ".join(f"{k}={v}" for k, v in res["outputs"].items()))
    for name, m in res["metrics"].items():
        note = ""
        if name in ("op_p50_s", "op_p90_s", "ops_per_s"):
            note = (f"  (raw {res['raw'][name]:.6g}; {n} ops, each the mean of "
                    f"{res['runs_per_op']:.1f} runs on average)")
        elif name == "setup_s":
            note = f"  (median of {res['setup_probes']} interpreters)"
        print(f"  {name:<34} {m['value']:<14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<34} {res['failed'] / res['attempted']:<14.6g} fraction"
          f"  ({res['failed']} of {res['attempted']} ops)")
    checked = "checked against digests.json" if res["checked_against_committed"] \
        else "no committed digests for this seed"
    print(f"  digest {res['digest']} over the first {len(res['digests'])} ops ({checked})")
    if "host_factor" in res:
        print(f"  median host factor {res['host_factor']:.4g} (1 on a calm reference host)")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    if "trace_file" in res:
        print(f"  spans written to {res['trace_file']}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, rounds: int = 0,
                 probes: int = SETUP_PROBES) -> dict:
    setup = measure_setup(probes // 2) if trace == 0 else []
    res = run_worker(workload, seed, seconds, trace, rounds)
    if trace == 0:
        setup += measure_setup(probes - len(setup))
        res["metrics"]["setup_s"] = statistics.median(setup)
        res["setup_probes"] = probes
        units = END_TO_END_UNITS
    else:
        units = {name: layer_unit(name) for name in res["metrics"]}
    res["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in res["metrics"].items()}
    report(res)
    return res


def update_digests() -> int:
    (HERE / "digests.json").unlink(missing_ok=True)   # so the workers compare nothing
    out = {"seed": 0, "note": "per-op output digests of the first pass at the default seed; "
                              "written by run.py --update-digests", "workloads": {}}
    for name in WORKLOADS:
        res = run_worker(name, 0, 0, 0, 0)
        if res["failed"]:
            print(f"{name}: {res['failed']} ops failed their checks; not writing",
                  file=sys.stderr)
            return 1
        out["workloads"][name] = {"combined": res["digest"], "ops": res["digests"]}
    (HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"self-check: first {QUICK_ROUNDS} round of every workload, "
                         "untraced and traced, against the committed digests")
    ap.add_argument("--update-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "persimod" / "__init__.py").is_file():
        print(f"no persimod sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.update_digests:
        return update_digests()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.quick:
        runs = [(name, trace) for name in names for trace in (0, 1)]
    else:
        runs = [(name, args.trace) for name in names]
    try:
        results = [run_workload(name, args.seed, args.seconds, trace,
                                rounds=QUICK_ROUNDS if args.quick else 0,
                                probes=1 if args.quick else SETUP_PROBES)
                   for name, trace in runs]
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(e, file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
