"""Benchmark of the wavetransformer package: three workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced one.

    python3 perfbench/run.py --workload train_b12 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in this process; `all` runs each workload in a process of
its own (so `peak_rss_mb` belongs to it alone) and prints one table.  The
last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads: gradient bits differ between BLAS thread counts
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"), ("clip_s", "s"),
              ("loss_final", "nats"), ("peak_rss_mb", "MB"))
MIN_TIMED_OPS = 2
CHILD_TIMEOUT_S = 900


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and vocabulary, for the smoke test")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _field(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every file under src/, identifying the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = _field(_read("/proc/meminfo"), "MemTotal")
    return {
        "git_revision": git_revision(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "process_threads": int(_field(_read("/proc/self/status"), "Threads") or 0),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "cpu_model": _field(_read("/proc/cpuinfo"), "model name") or platform.processor(),
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def run_ops(wl, index: int, budget: float, min_ops: int, tracer=None):
    """Closed loop: the next operation starts when the previous one is done,
    while it is expected to end within `budget` seconds.  Returns the next
    index, the (items, seconds) of each operation, and the failures."""
    done, failures = [], []
    start = time.perf_counter()
    last = 0.0
    while len(done) + len(failures) < min_ops or time.perf_counter() - start + last <= budget:
        if tracer is not None:
            tracer.key = f"op{index}"
        try:
            n, last = wl.op(index)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        else:
            done.append((n, last))
        index += 1
    return index, done, failures


def attempt(failures: list[str], what: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def median_op_s(done) -> float:
    return spans.median([seconds / n for n, seconds in done])


def run_workload(args, wt, import_s: float) -> int:
    size = workloads.SMOKE if args.smoke else workloads.PAPER
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](wt, size, args.seed, workdir)
        wl.generate()
        setup_times = []
        for rep in range(size.setup_reps):
            if tracer is not None:
                tracer.key = f"setup{rep}"
                tracer.install(wt)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()

        failures: list[str] = []
        attempt(failures, "warm-up", wl.op, 0)  # checked, not timed
        if tracer is None:
            _, done, fails = run_ops(wl, 1, args.seconds, MIN_TIMED_OPS)
            failures += fails
        else:
            # untraced then traced operations; their ratio is the overhead
            first, untraced, fails = run_ops(wl, 1, args.seconds / 3, 1)
            failures += fails
            tracer.name_layers(wl.model)
            tracer.install(wt)
            last, done, fails = run_ops(wl, first, args.seconds * 2 / 3, 1, tracer)
            failures += fails
            tracer.key = "evaluate"
        attempt(failures, "evaluate", wl.evaluate)
        if tracer is not None:
            tracer.uninstall()
        loss_final = attempt(failures, "loss", wl.loss_final)
        # warm-up, evaluate and loss, plus every timed operation
        attempted = 3 + sum(1 for f in failures if f.startswith("op ")) + len(done)
        attempted += 0 if tracer is None else len(untraced)

        if tracer is None:
            metrics = {
                "setup_s": import_s + spans.median(setup_times),
                "samples_per_s": sum(n for n, _ in done) / sum(s for _, s in done) if done else 0.0,
                "clip_s": median_op_s(done),
                "loss_final": loss_final if loss_final is not None else float("nan"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        else:
            op_keys = [f"op{i}" for i in range(first, last)]
            setup_keys = [f"setup{r}" for r in range(size.setup_reps)]
            overhead = (median_op_s(done) / median_op_s(untraced) - 1
                        if done and untraced else 0.0)
            op_stats = {f"op{i}": v for i, v in wl.op_stats.items()}
            metrics = spans.per_layer_metrics(tracer, op_keys, setup_keys, op_stats,
                                              wl.vocab.size, overhead)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            print("\n".join(spans.table(tracer, op_keys, setup_keys)))
            print(f"tracing overhead {overhead:+.4f} ratio (median operation "
                  f"{median_op_s(done):.4f} s traced, {median_op_s(untraced):.4f} s untraced)")
            traces = work_root / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}.json.gz")

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "shape": wl.shape(),
                  "env": environment(), "outputs": wl.outputs(), "failures": failures,
                  "operations": done, "metrics": metrics}
        results = work_root / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {k: v for k, v in record["outputs"].items() if k.endswith("_digest")}
    for key, value in (("env", record["env"]), ("shape", record["shape"]), ("outputs", digests)):
        print(f"{key} " + json.dumps(value, sort_keys=True))
    if tracer is None:
        print(f"operations {len(done)} timed, median of {len(done)} reported")
        for name, unit in END_TO_END:
            print(f"{name} {metrics[name]!r} {unit}")
    for f in failures:
        print("FAILED " + f)
    print(f"failed_ratio {len(failures) / attempted!r} ratio ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, one process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    summary, metrics, attempted, failed, correct = [], {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr)
                print(f"error: {name} exited with code {done.returncode}", file=sys.stderr)
                return 2
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                metrics[f"{name}.{metric}"] = m
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                summary += [f"{name:20s} {metric:14s} {m['value']:14.6g} {m['unit']}"
                            for metric, m in result["metrics"].items()]
                summary.append(f"{name:20s} {'failed_ratio':14s} {ratio:14.6g} ratio")
    print("== summary (untraced runs)")
    print("\n".join(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    package = ROOT / "src" / "wavetransformer" / "__init__.py"
    if not package.is_file():
        print(f"error: package source not found at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wt = workloads.import_package(ROOT)
    return run_workload(args, wt, time.perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main())
