"""Benchmark of auxsel on the paper's studies and the `select` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

It imports the package from ``src/`` of that checkout, pins every BLAS
library to one thread, sets the workload up three times, then runs whole
rounds of the workload in one process until ``--seconds`` have passed.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
every round runs twice, untraced and then with span wrappers installed
on the package's layers, and it reports the per-layer metrics.  The last
line of standard output is one JSON object; the run record and the spans
go to ``.perfbench/`` in the checkout.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads OpenBLAS; every figure is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def load_package():
    """Import auxsel from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "auxsel" / "__init__.py").is_file():
        raise SystemExit(f"error: no auxsel package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("auxsel")
    if Path(pkg.__file__).resolve().parent != (src / "auxsel").resolve():
        raise SystemExit(f"error: auxsel imported from {pkg.__file__}, not {src}")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info():
    """BLAS libraries numpy and scipy loaded, with their live thread counts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "env_threads": os.environ["OPENBLAS_NUM_THREADS"], "threads": threads}


def timed(fn, *args):
    """(wall seconds, CPU seconds of this process, result) of one call."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args)
    return time.perf_counter() - t0, time.process_time() - c0, out


def run_rounds(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed and ``wl.min_rounds`` are done.

    Returns the untraced rounds, the traced ones and the summed extra
    wall time of tracing.  With a tracer every round runs untraced and
    then traced on the same inputs.
    """
    plain, traced, overhead = [], [], 0.0
    t_loop = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - t_loop < seconds:
        inputs = wl.inputs(r)
        plain.append(timed(wl.round, r, inputs))
        if tracer is not None:
            tracer.install()
            try:
                tracer.open(tracing.ROOT)
                traced.append(timed(wl.round, r, inputs))
                tracer.close()
            finally:
                tracer.uninstall()
            overhead += traced[-1][0] - plain[-1][0]
        r += 1
    return plain, traced, overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "wine", "loocv", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_package()
    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = [timed(wl.setup)[0] for _ in range(SETUP_REPEATS)]
        plain, traced, overhead = run_rounds(wl, args.seconds, tracer)
        checks = wl.check([res["payload"] for _, _, res in plain])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        differ = sum(a["payload"] != b["payload"]
                     for (_, _, a), (_, _, b) in zip(plain, traced))
        checks.append({"name": "tracing_changes_no_result", "ok": differ == 0,
                       "detail": f"{differ} of {len(traced)} traced rounds differ"})

    results = [res for _, _, res in plain + traced]
    times = [dt for dt, _, _ in plain]
    attempted = sum(res["attempted"] for res in results)
    failures = Counter(name for res in results for name in res["failures"])
    failed = sum(failures.values())
    ops_per_s = sum(res["ops"] for _, _, res in plain) / sum(times)
    round_s = statistics.median(times)
    setup_s = import_s + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "round_s_p50": {"value": round_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracing.layer_metrics(tracer, overhead)
        tracer.write(OUT / f"{tag}.spans.jsonl")
    named = {name: {"value": v, "unit": u}
             for name, (v, u) in wl.named(ops_per_s, round_s).items()}
    named["setup_s"] = {"value": setup_s, "unit": "s"}
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    correct = all(c["ok"] for c in checks)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "rounds": len(plain), "round_seconds": times,
        "round_cpu_seconds": [cpu for _, cpu, _ in plain],
        "traced_round_seconds": [dt for dt, _, _ in traced], "op": wl.op,
        "import_s": import_s, "setup_runs_s": setup_times,
        "attempted": attempted, "failed": failed,
        "failures": dict(failures), "checks": checks, "correct": correct,
        "metrics": metrics, "named_metrics": named,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain)}  "
          f"trace {args.trace}  blas threads {record['blas']['threads']}")
    for name, m in named.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed} {dict(failures)}")
    for c in checks:
        print(f"  check {c['name']}: {'PASS' if c['ok'] else 'FAIL'}  {c['detail']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
