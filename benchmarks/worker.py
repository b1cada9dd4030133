"""Runs one workload in a fresh interpreter and prints its raw results.

Started by ``run.py`` with one JSON argument; prints one JSON line.  The
interpreter start, ``import frameseq`` (with ``frameseq.cli``), input
generation for the first pass and the BLAS/FFT warm-up all happen before
the first timed operation and make up the set-up time.
"""

import collections
import json
import os
import resource
import sys
import time


def _warm_up(np):
    # first eigvalsh (LAPACK, BLAS threads) and first FFT cost 0.5-0.9 s
    # once per process: pay them here, never inside an operation
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    np.linalg.eigvalsh(a + a.conj().T)
    np.linalg.eigvalsh(a.real + a.real.T)
    np.fft.fft(rng.normal(size=4096))


def _run_ops(ops, p, tracer=None):
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{p}:{i}"
        t0 = time.perf_counter()
        try:
            result = op.run()
            reason = None
        except Exception as exc:  # every failure is recorded, none stops the run
            result = None
            reason = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        result = None  # release large outputs before the next operation
        out.append((op, seconds, reason))
    return out


def _environment(np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    args = json.loads(sys.argv[1])
    in_process = args["in_process"]
    import_s = None
    if in_process:
        t0 = time.perf_counter()
        import frameseq.cli  # noqa: F401  (the CLI module loads the whole package)

        import_s = time.perf_counter() - t0
    import numpy as np

    import workloads
    from tracing import Tracer, layer_totals

    spec = workloads.WORKLOADS[args["workload"]]
    seed, seconds = args["seed"], args["seconds"]
    cli = workloads.CliRunner(args["root"], dict(os.environ), args["out_dir"])
    fixed = spec.fixed(cli)
    ops = spec.make_pass(seed, 0, fixed)
    if in_process:
        _warm_up(np)
    setup_s = time.monotonic() - args["spawned"]
    if args["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = []
    tracer = Tracer() if args["trace"] else None
    traced_s = untraced_s = 0.0
    start = time.monotonic()
    p = 0
    while True:
        if tracer is None:
            results += _run_ops(ops, p)
        else:
            # the same inputs traced and untraced, alternating which goes first
            for traced in ((True, False) if p % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                    cli.tracer = tracer
                    res = _run_ops(ops, p, tracer)
                    tracer.uninstall()
                    cli.tracer = None
                    traced_s += sum(r[1] for r in res)
                    results += res
                else:
                    untraced_s += sum(r[1] for r in _run_ops(ops, p))
        p += 1
        if time.monotonic() - start >= seconds:
            break
        ops = spec.make_pass(seed, p, fixed)
    wall_s = time.monotonic() - start

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    n = len(results)
    counts = collections.Counter((k, str(v)) for op, _, _ in results for k, v in op.props.items())
    seen = set()
    for op, _, _ in results:
        counts["repeated_key", str(op.key in seen)] += 1
        seen.add(op.key)
    shares = {}
    for (prop, value), count in sorted(counts.items()):
        shares.setdefault(prop, {})[value] = count / n
    out = {
        "setup_s": setup_s,
        "passes": p,
        "wall_s": wall_s,
        "ops": [[op.name, str(op.key), dt, reason,
                 bool(reason and op.known_defect and op.known_defect in reason)]
                for op, dt, reason in results],
        "properties": shares,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "environment": _environment(np),
    }
    if tracer is not None:
        records = tracer.records()
        totals = layer_totals(records)
        if not in_process:
            import_s = sum(cli.import_s) / len(cli.import_s)
        out.update(layer_totals=totals, import_s=import_s, overhead_s=(traced_s - untraced_s) / p)
        gram_totals = totals.get("gram.build_gram", {})
        builds = gram_totals.get("route_grid", 0) + gram_totals.get("route_autocorr", 0)
        if builds:
            out["properties"]["gram_route"] = {"grid": gram_totals["route_grid"] / builds,
                                               "autocorrelation": gram_totals["route_autocorr"] / builds}
        spans_file = os.path.join(args["out_dir"], f"{args['workload']}-seed{seed}-spans.json")
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        out["spans_file"] = spans_file
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
