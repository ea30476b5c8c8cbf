"""functree benchmark: one command for the fit, analysis and CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fit-hu30 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The package is imported from ``src/`` of the checkout, without installing it.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its overhead. Each workload prints its checks and
metrics line by line and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in a fresh process of its own.
"""

from __future__ import annotations

import os
import sys

# The BLAS pool is sized when numpy loads; pin it first so every run computes
# on one thread whatever the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("fit-hu30", "analyze-hu30", "cli-friedman8")


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS)}


def _measure(wl, state, seconds: float, tracer=None, n_rounds: int | None = None):
    """Whole rounds until the timed operations have run for ``seconds`` and
    the workload's ``min_rounds`` are done, or exactly ``n_rounds``; checks
    run after each round, outside the timing and the trace."""
    from workloads import Round

    rounds, checks = [], []
    while True:
        rnd = Round()
        if tracer is not None:
            tracer.enabled = True
        wl.round(state, rnd)
        if tracer is not None:
            tracer.enabled = False
        rounds.append(rnd)
        checks.extend(wl.checks(state))
        if n_rounds is not None:
            if len(rounds) == n_rounds:
                return rounds, checks
        elif len(rounds) >= wl.min_rounds and sum(r.wall_s for r in rounds) >= seconds:
            return rounds, checks


def _unit(name: str) -> tuple[str, str]:
    if name.endswith("_ratio"):
        return "ratio", "higher"
    if name.endswith(("_s", ".s")):
        return "s", "lower"
    if name.endswith(".rows"):
        return "rows", "lower"
    if name.endswith("fast_evals"):
        return "evals", "lower"
    return "count", "lower"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from tracer import Tracer, install, layer_metrics

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        wl = {"fit-hu30": workloads.FitHu30, "analyze-hu30": workloads.AnalyzeHu30,
              "cli-friedman8": lambda: workloads.CliFriedman8(work)}[name]()
        tracer = Tracer() if trace else None
        if tracer is not None:
            install(tracer)
        setup_times = []
        for rep in range(wl.setup_reps):
            # a traced run traces one set-up (the last) and the traced rounds
            if tracer is not None:
                tracer.enabled = rep == wl.setup_reps - 1
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        rounds, checks = _measure(wl, state, seconds)
        if tracer is not None:
            traced, more = _measure(wl, state, seconds, tracer, n_rounds=len(rounds))
            tracer.uninstall()
            checks += more
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment()
    print(f"# workload {name}, seed {seed}, {len(rounds)} round(s), trace {int(trace)}")
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for label, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))

    wall = statistics.median(r.wall_s for r in rounds)
    stages = wl.metrics(rounds)
    for key, (value, unit) in stages.items():
        print(f"stage {key} {value:.6g} {unit}")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_wall = statistics.median(r.wall_s for r in traced)
        layers = layer_metrics(tracer)
        layers.update({"trace.untraced_wall_s": wall, "trace.wall_s": traced_wall,
                       "trace.overhead_s": traced_wall - wall})
        metrics = {k: (v, _unit(k)[0]) for k, v in layers.items()}
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value:.6g} {unit}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"ops attempted {attempted} failed {failed}")

    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=name, seed=seed, environment=env,
                       stages={k: {"value": v, "unit": u} for k, (v, u) in stages.items()},
                       checks=[{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]), fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    summary, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole rounds until this much time is timed (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "functree" / "__init__.py").is_file():
        print(f"error: no functree sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
