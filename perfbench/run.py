"""consdyn benchmark: one seeded workload through the CLI path, checked.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Times are reported at a fixed reference machine speed (see speed.py), with
the times as measured printed alongside.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (transitions_per_s, wall_s, setup_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics from a traced run instead, and
the spans of its last traced pass are written to
.perfbench_out/trace-<workload>.npz.  Lines before it give the environment,
every pass, the failure ratio and the artifact digest.  The workloads are
defined in perfbench/workloads.py; BENCHMARK.json says why each is there.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# the import is timed first, in an interpreter that has loaded nothing else;
# probes taken right after it give the machine speed
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[2]); t = time.perf_counter(); "
    "import consdyn; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import speed; print(t, speed.speed([speed.probe() for _ in range(5)]))"
)
# one BLAS thread, so that runs on a small shared machine do not contend
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup_seconds() -> tuple[float, float]:
    """Median time of `import consdyn` (numpy included) in fresh
    interpreters, at the reference speed and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, speed = map(float, done.stdout.split())
        scaled.append(seconds * speed)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(invocations, workdir: Path) -> float:
    """Peak memory of a fresh process that runs one pass (see peak_rss.py)."""
    listing = workdir / "invocations.json"
    listing.write_text(json.dumps([[list(inv.argv), inv.expect_exit] for inv in invocations]))
    done = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), str(listing), str(workdir / "rss")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"peak_rss.py failed:\n{done.stderr}")
    shutil.rmtree(workdir / "rss", ignore_errors=True)
    return float(done.stdout.split()[-1])


def listed_units(trace: bool) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def blas_threads() -> str:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "consdyn" / "__init__.py").is_file():
        print(f"perfbench: no consdyn sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))

    import numpy as np

    import consdyn
    import harness
    from workloads import WORKLOADS

    if Path(consdyn.__file__).resolve().parent != SRC / "consdyn":
        print(f"perfbench: imported consdyn from {consdyn.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={sys.version.split()[0]} numpy={np.__version__} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"blas_threads={blas_threads()}"
    )
    unit = listed_units(bool(args.trace))
    setup, raw_setup = setup_seconds()
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        invocations = harness.prepare(args.workload, args.seed, workdir)
        rss = peak_rss_mb(invocations, workdir)
        run = harness.measure(
            invocations,
            args.seconds,
            workdir,
            trace=bool(args.trace),
            trace_path=OUT / f"trace-{args.workload}.npz",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"setup {raw_setup:.4f} s as measured, {setup:.4f} s at reference speed")
    for kind, passes in (("untraced", run.untraced), ("traced", run.traced)):
        for p in passes:
            print(
                f"pass {kind} {p.raw_wall_s:.4f} s as measured, speed {p.speed:.3f}, "
                f"{p.wall_s:.4f} s at reference speed, {p.transitions} transitions"
            )
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio {run.failed / run.attempted} ({run.failed}/{run.attempted} invocations)")
    print(f"artifact_sha256 {args.workload} seed={args.seed} {run.digest()}")

    if args.trace:
        metrics = harness.per_layer(run)
    else:
        metrics = {**harness.end_to_end(run), "setup_s": setup, "peak_rss_mb": rss}
    if metrics.keys() != unit.keys():
        print(f"perfbench: metrics {sorted(metrics.keys() ^ unit.keys())} are computed "
              "or listed in BENCHMARK.json, not both", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name} {value} {unit[name]}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": unit[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
