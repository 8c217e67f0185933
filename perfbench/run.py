"""dowg benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout.  Each round of the workload runs in a
fresh Python process (perfbench/worker.py) on one core: DOWG_THREADS
unset, one OpenBLAS/OpenMP thread.  Rounds repeat while another one still
fits in ``--seconds`` (at least one always runs); five extra set-up-only
processes give ``setup_s`` enough samples for a median.  Times are
seconds at the host's reference speed (see worker.py).

The inputs are the stock manufactured cases, fixed by the workload, so
``--seed`` changes nothing and is only recorded.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-module metrics of traced
rounds.  The last line of standard output is the result object; the
lines before it give per-round figures, every checked operation, the
module breakdown of traced rounds and the machine facts.  ``--smoke``
runs the same harness at tiny levels in seconds.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
SETUP_PROBES = 5
THREAD_VARS = ("DOWG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# one core per round: DOWG_THREADS unset keeps the solver serial, and a
# single BLAS thread keeps the other core from adding its own noise
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class RoundFailed(Exception):
    pass


def machine_facts():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
        "worker_env": {v: WORKER_THREADS.get(v) for v in THREAD_VARS},
    }


def run_worker(args, env, started):
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise RoundFailed("out of time before the round started")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "dowg", "__init__.py")):
        print(f"no dowg sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("PYTHONPATH",)}
    env.update(WORKER_THREADS)
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])
    try:
        setups = [run_worker(common + ["--setup-only", "--out", out], env, started)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        rounds = []
        while not rounds or (time.monotonic() - started + last <= args.seconds):
            t0 = time.monotonic()
            round_out = os.path.join(out, f"round-{len(rounds)}")
            rounds.append(run_worker(
                common + ["--out", round_out] + (["--trace"] if args.trace else []),
                env, started))
            shutil.rmtree(round_out, ignore_errors=True)
            last = time.monotonic() - t0
    except RoundFailed as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1

    setups += [r["setup_s"] for r in rounds]
    ops = [op for r in rounds for op in r["operations"]]
    failed = [op for op in ops if op["failures"]]
    correct = all(op["known_fault"] for op in failed)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} round(s), "
          f"{len(setups)} set-up samples; inputs are fixed, the seed is recorded only")
    for i, r in enumerate(rounds):
        print(f"  round {i}: wall_s {r['wall_s']:.4f} (raw {r['wall_raw_s']:.4f}) "
              f"setup_s {r['setup_s']:.4f} (raw {r['setup_raw_s']:.4f}) "
              f"peak_rss_mb {r['peak_rss_mb']:.1f}")
    for op in rounds[0]["operations"]:
        order = "" if op["order"] is None else f" order {op['order']:.3f}"
        if "residual" in op:
            order += f" residual {op['residual']:.2e}"
        verdict = "; ".join(op["failures"]) or "ok"
        fault = " [known fault]" if op["known_fault"] and op["failures"] else ""
        print(f"  {op['label']}: error {op['error']:.6g} = {op['ratio']:.3f} x best "
              f"{op['best']:.6g}{order}: {verdict}{fault}")

    if args.trace:
        metrics = {name: median([r["layers"][name] for r in rounds])
                   for name in rounds[0]["layers"]}
        names = sorted({n for r in rounds for n in r["modules"]})
        for name in names:
            total = median([r["modules"].get(name, {}).get("total_s", 0.0) for r in rounds])
            own = median([r["modules"].get(name, {}).get("self_s", 0.0) for r in rounds])
            calls = median([r["modules"].get(name, {}).get("calls", 0) for r in rounds])
            print(f"  span {name}: total_s {total:.4f} self_s {own:.4f} calls {calls:g}")
        print(f"  traced wall_s {metrics['trace.wall_s']:.4f} = span self times, "
              f"untimed {metrics['trace.untimed_s']:.4f} included; tracing overhead "
              f"{metrics['trace.overhead_s']:.6f} s estimated from the span count, "
              f"measured as this traced wall_s minus a --trace 0 run's wall_s")
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump([r["spans"] for r in rounds], fh)
        units = {n: ("count" if n.endswith(("_calls", "_iterations")) else
                     "ms" if n.endswith("_ms") else "s") for n in metrics}
    else:
        metrics = {
            "wall_s": median([r["wall_s"] for r in rounds]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
            "err_ratio": max(op["ratio"] for op in ops),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "err_ratio": "1"}
    print("machine: " + json.dumps(machine_facts()))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
