"""mulco benchmark: one workload per run, end-to-end or layer-traced.

    python3 perfbench/run.py --workload {train,codec} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, and nothing needs installing.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are a readable
summary and the environment.  Result and span files go to
``.perfbench_out/`` at the checkout root.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# BLAS is pinned to one thread in this process: the model's matrices are
# small, and thread start-up and contention would only add noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "codec"))
    p.add_argument("--seed", type=int, default=101, help="base seed: inputs use N, N+2, N+6")
    p.add_argument("--seconds", type=float, default=40.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def _line_count(directory: Path) -> int:
    return sum(len(f.read_bytes().splitlines()) for f in sorted(directory.rglob("*.py")))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no machine-readable build configuration
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": _line_count(SRC),
        "tests_lines": _line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mulco" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'mulco'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mulco

    if not Path(mulco.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: mulco imported from {mulco.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    # Model predictions may cross; the warning is legal-format noise here,
    # as in the test suite's configuration.
    warnings.filterwarnings("ignore", category=mulco.CrossingOverlapWarning)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seeds = workloads.Seeds.from_base(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        workdir = Path(tmp)
        # a traced run compares one round with and without the wrappers
        rounds = 1 if args.trace else None
        t0 = time.perf_counter()
        run = workloads.run_pass(args.workload, sizes, seeds, workdir, args.seconds, rounds)
        untraced_s = time.perf_counter() - t0
        runs = [run]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = workloads.run_pass(
                    args.workload, sizes, seeds, workdir, args.seconds, rounds, tracer
                )
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            runs.append(traced)
            traced.check(
                traced.checksums == run.checksums and traced.f1s == run.f1s,
                "the traced pass computed different results",
            )
            metrics = workloads.per_layer(tracer, traced_s / untraced_s - 1.0)
            tracer.write(OUT / f"spans-{args.workload}.json")  # tens of MB: keep one per workload
        else:
            metrics = workloads.end_to_end(run, _peak_rss_mb())

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seeds": vars(seeds),
        "sizes": vars(sizes),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "rounds": run.rounds,
        "cpu_share": round(run.cpu_share, 4),
        "samples": workloads.sample_counts(run),
        "params_checksum": run.checksums[0] if run.checksums else None,
        "fail_ratio": len(failures) / max(attempted, 1),
        "failures": failures,
        "environment": environment(),
        "result": result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<40} {details['fail_ratio']:>14.6g} ratio")
    print(json.dumps({key: details[key] for key in ("seeds", "rounds", "cpu_share", "samples", "params_checksum", "environment")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
