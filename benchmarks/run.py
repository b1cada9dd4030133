"""frameseq benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload lattice-verdicts --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh worker interpreter as a closed loop with one
client: the next operation starts when the previous one returns.  Passes
run whole, so a run measures at least ``--seconds`` and ends at the first
pass boundary after it.  BLAS threads are pinned through
``FRAMESEQ_THREADS`` (and the BLAS variables it maps to) in the worker's
environment, to at most 2 and at most the CPUs this process may use.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list every metric with its unit, every failed operation
with its reason, the measured input properties and the environment.  The
full record is written under ``.bench_results/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_results")
# set-ups per run, half before the measured run and half after it, so that
# their median spans more than one of the host's speed states
SETUP_REPEATS = 7
THREADS = min(2, len(os.sched_getaffinity(0)))

from tracing import layer_metrics  # numpy only; frameseq is not imported here
from workloads import WORKLOADS


class BenchError(RuntimeError):
    pass


def _env():
    # the BLAS variables too: in a worker, `import frameseq.cli` loads numpy
    # through the package before the CLI copies FRAMESEQ_THREADS into them
    env = dict(os.environ)
    for var in ("FRAMESEQ_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload, seed, seconds, trace, setup_only):
    args = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setup_only": setup_only, "in_process": WORKLOADS[workload].in_process,
            "root": ROOT, "out_dir": OUT_DIR, "spawned": time.monotonic()}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(args)],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=3 * seconds + 120)  # traced runs execute every pass twice
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cold_import():
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import frameseq.cli"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import frameseq.cli failed:\n{proc.stderr[-2000:]}")
    return time.monotonic() - t0


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _percentile(values, pct):
    """Nearest-rank percentile; failed operations sort last as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line object, full record, report lines)."""
    spec = WORKLOADS[workload]

    def set_ups(count):
        if trace:
            return []
        if spec.in_process:
            return [_worker(workload, seed, seconds, trace, True)["setup_s"] for _ in range(count)]
        return [_cold_import() for _ in range(count)]

    # an in-process worker's own set-up is one of the SETUP_REPEATS
    extra = SETUP_REPEATS - (1 if spec.in_process else 0)
    setups = set_ups(extra // 2)
    raw = _worker(workload, seed, seconds, trace, False)
    if spec.in_process and not trace:
        setups.append(raw["setup_s"])
    setups += set_ups(extra - extra // 2)
    bench = _benchmark_json()

    ops = raw["ops"]
    attempted = len(ops)
    failures = [o for o in ops if o[3] is not None]
    unexpected = [o for o in failures if not o[4]]
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
             f"passes {raw['passes']}  operations {attempted}"]
    error_rate = len(failures) / attempted
    if trace:
        report = layer_metrics(bench["per_layer"], raw["layer_totals"], raw["passes"],
                               raw["import_s"], raw["overhead_s"])
    else:
        lat_ms = [o[2] * 1000.0 if o[3] is None else math.inf for o in ops]
        report = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (attempted - len(failures)) / raw["wall_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": _percentile(lat_ms, 50), "unit": "ms"},
            "latency_tail_ms": {"value": _percentile(lat_ms, spec.tail_pct), "unit": "ms"},
            "error_rate": {"value": error_rate, "unit": "ratio"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(f"  setup_s          set-ups {[round(s, 4) for s in setups]} (median reported)")
        lines.append(f"  latency_tail_ms  is p{spec.tail_pct} of {attempted} operations")
    for name, m in report.items():
        lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    # the result line carries the metrics BENCHMARK.json gates; the rest are
    # reported above and in the record
    metrics = {m["name"]: report[m["name"]] for m in bench["per_layer" if trace else "end_to_end"]}
    for name, key, _, reason, known in failures:
        lines.append(f"  FAILED {name} {key}: {reason}" + ("  [known defect]" if known else ""))
    for prop, shares in raw["properties"].items():
        lines.append(f"  share {prop}: " + ", ".join(f"{v} {s:.3f}" for v, s in shares.items()))
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "frameseq_threads": THREADS,
        "git_sha": _git_sha(),
        **raw["environment"],
    }
    lines.append("  environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = {
        "workload": workload, "why": spec.why, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": raw["passes"], "tail_percentile": spec.tail_pct, "report": report,
        "set_ups_s": setups, "environment": environment, "properties": raw["properties"],
        "failures": [{"op": n, "key": k, "reason": r, "known_defect": kd} for n, k, _, r, kd in failures],
        "operations": [{"op": n, "key": k, "seconds": s, "ok": r is None} for n, k, s, r, _ in ops],
        "spans_file": raw.get("spans_file"), "result": result,
    }
    return result, record, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "frameseq", "__init__.py")):
        print(f"error: no frameseq source tree under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, record, lines = run_workload(name, args.seed, args.seconds, args.trace)
            path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print("\n".join(lines + [f"  record: {os.path.relpath(path, ROOT)}"]), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
