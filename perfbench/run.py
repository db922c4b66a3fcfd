"""Benchmark of the colorrep command line, one workload per invocation.

    python3 perfbench/run.py --workload gns-rep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Set-up generates the workload's seeded inputs and
byte-compiles the package, three times, and reports the median as
``setup_s``.  The workload is then a closed loop with one client: each task
is a fresh ``python -m colorrep.cli`` process, started only after the
previous one exited, so every task starts with cold caches as a CLI user's
does.  The loop runs whole passes over the workload's task list and starts
another pass only while it is expected to end within ``--seconds``.  Every
task's exit code and JSON report are checked against the verdict it must
give.  A task marked with a known defect that gives exactly that known wrong
outcome counts in ``fail_frac`` and is printed as ``KNOWN DEFECT``, but it
does not make the run incorrect; any other wrong outcome does.

With ``--trace 1`` the run makes one untraced and one traced pass over the
same task list; traced tasks run under ``perfbench/tracer.py`` and the run
reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, where ``metrics`` holds the ``end_to_end`` (trace 0) or
``per_layer`` (trace 1) metrics that BENCHMARK.json declares.  Everything a
run writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import gen  # noqa: E402  (sibling module; HERE is sys.path[0] for scripts)
import tracer  # noqa: E402

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a task still running this long after the start is killed
MAX_BLAS_THREADS = 2

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "fail_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


# ---------------------------------------------------------------- arithmetic

def median(values) -> float:
    return float(statistics.median(values))


def summarize(results: list[dict], wall_s: float) -> dict:
    """End-to-end metrics of one set of task results.

    ``tasks_per_s`` counts tasks that gave their expected verdict per second
    of loop wall time; ``fail_frac`` is failed over attempted.  A task that
    showed its known defect counts as failed here, and also in ``known``.
    """
    attempted = len(results)
    failed = sum(1 for r in results if r["failure"])
    return {
        "tasks_per_s": (attempted - failed) / wall_s,
        "task_p50_s": median(r["wall_s"] for r in results),
        "fail_frac": failed / attempted,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "tasks": attempted,
        "failed": failed,
        "known": sum(1 for r in results if r.get("known_defect")),
    }


def verdict(task: dict, code: int, stdout: str) -> str | None:
    """Why a task's exit code and report differ from the expected ones."""
    if code != task["exit"]:
        return f"exit {code}, expected {task['exit']}"
    if task["exit"] == 2:
        return None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    if doc.get("passed") is not task["passed"]:
        return f"report passed={doc.get('passed')}, expected {task['passed']}"
    names = {c.get("name") for c in doc.get("checks", [])}
    missing = [n for n in task["checks"] if n not in names]
    if missing:
        return f"report lacks checks {missing}"
    return None


def shows_known_defect(task: dict, code: int, stdout: str) -> bool:
    """Whether a task gave exactly the wrong outcome it is known to give."""
    known = task.get("known_defect")
    if known is None or code != known["exit"]:
        return False
    if code == 2:
        return True
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    return isinstance(doc, dict) and doc.get("passed") is known["passed"]


def unexpected(results: list[dict]) -> list[dict]:
    """Tasks whose wrong verdict is not their known defect."""
    return [r for r in results if r["failure"] and not r.get("known_defect")]


# ------------------------------------------------------------------ processes

def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("COLORREP_CONFIG", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    env["PYTHONHASHSEED"] = "0"  # call counts repeat exactly between runs
    return env


def spawn(argv: list[str], env: dict, log_stem: Path, limit_at: float) -> dict:
    """Run one process to its end; wall time, exit code and peak RSS.

    The child is killed if it is still running at ``limit_at``
    (``time.monotonic`` clock).
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, limit_at - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_pass(tasks: list[dict], env: dict, logs: Path, tag: str,
             limit_at: float, spans: Path | None = None) -> tuple[list[dict], float]:
    """One pass over the task list; returns the results and the wall time."""
    results = []
    t0 = time.perf_counter()
    for k, task in enumerate(tasks):
        stem = logs / f"{tag}-{k:03d}-{task['id']}"
        if spans is None:
            argv = [sys.executable, "-m", "colorrep.cli", *task["argv"]]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(spans / f"{k:03d}-{task['id']}.npz"), "--", *task["argv"]]
        r = spawn(argv, env, stem, limit_at)
        stdout = Path(f"{stem}.out").read_text(encoding="utf-8", errors="replace")
        r["id"] = task["id"]
        r["failure"] = verdict(task, r["exit"], stdout)
        r["known_defect"] = bool(r["failure"]) and shows_known_defect(
            task, r["exit"], stdout)
        results.append(r)
    return results, time.perf_counter() - t0


# -------------------------------------------------------------------- set-up

def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def setup(workload: str, seed: int, work: Path, env: dict) -> tuple[list[dict], list[float]]:
    """Byte-compile the package and generate the inputs, SETUP_REPEATS times.

    Every repeat must write byte-identical inputs.  Returns the task list of
    the first repeat and the duration of each repeat.
    """
    times = []
    trees = []
    for k in range(SETUP_REPEATS):
        out = work / f"inputs-{k}"
        t0 = time.perf_counter()
        for argv in ([sys.executable, "-m", "compileall", "-q", "-f",
                      str(SRC / "colorrep")],
                     [sys.executable, str(HERE / "gen.py"), "--workload",
                      workload, "--seed", str(seed), "--out", str(out)]):
            done = subprocess.run(argv, env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
            if done.returncode != 0:
                raise BenchError(f"set-up step {argv[1:3]} failed:\n"
                                 + done.stderr.decode(errors="replace"))
        times.append(time.perf_counter() - t0)
        tree = _tree(out)
        tree["tasks.json"] = tree["tasks.json"].replace(
            str(out).encode(), str(work / "inputs-0").encode())
        trees.append(tree)
    if any(t != trees[0] for t in trees[1:]):
        raise BenchError("the same seed generated different inputs")
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"inputs-{k}")
    doc = json.loads((work / "inputs-0" / "tasks.json").read_text(encoding="utf-8"))
    return doc["tasks"], times


# --------------------------------------------------------------- environment

def environment(seed: int, threads: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "colorrep").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------- main

def declared(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from None
    return doc["per_layer" if trace else "end_to_end"]


def emit(metrics: dict, units: dict, wanted: list[dict]) -> dict:
    """The declared metrics, each with the unit it is measured in."""
    out = {}
    for m in wanted:
        if units.get(m["name"]) != m["unit"]:
            raise BenchError(f"metric {m['name']} is not measured in {m['unit']}")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return out


def untraced(tasks, env, logs, limit_at, seconds, record):
    """Whole passes while the next one is expected to end within ``seconds``."""
    results, wall, passes = [], 0.0, 0
    while True:
        res, dur = run_pass(tasks, env, logs, f"pass{passes}", limit_at)
        results += res
        wall += dur
        passes += 1
        if wall + dur > seconds:
            break
    metrics = summarize(results, wall)
    metrics["setup_s"] = median(record["setup_times_s"])
    record.update(passes=passes, wall_s=wall)
    print(f"workload {record['workload']}: {passes} pass(es) of {len(tasks)} "
          f"tasks in {wall:.2f} s, closed loop, 1 client")
    notes = {"task_p50_s": f" (median of {metrics['tasks']} tasks)",
             "fail_frac": f" ({metrics['failed']} of {metrics['tasks']}, "
                          f"{metrics['known']} of them the known defect)",
             "setup_s": f" (median of {SETUP_REPEATS} set-ups)"}
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name} {metrics[name]:.6g} {unit}{notes.get(name, '')}")
    return metrics, END_TO_END_UNITS, results


def traced(tasks, env, work, logs, limit_at, record):
    """An untraced and a traced pass over the task list; per-layer metrics."""
    plain, plain_wall = run_pass(tasks, env, logs, "untraced", limit_at)
    spans = work / "spans"
    spans.mkdir()
    traced_res, traced_wall = run_pass(tasks, env, logs, "traced", limit_at,
                                       spans=spans)
    metrics = tracer.layer_metrics(sorted(spans.iterdir()))
    overhead = traced_wall - plain_wall
    record.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                  tracing_overhead_s=overhead)
    kept = OUT / f"spans-{record['workload']}"
    shutil.rmtree(kept, ignore_errors=True)
    shutil.copytree(spans, kept)
    print(f"workload {record['workload']}: traced pass of {len(tasks)} tasks "
          f"in {traced_wall:.2f} s, untraced pass in {plain_wall:.2f} s, "
          f"tracing overhead {overhead:.2f} s; spans in {kept}")
    for name, unit in tracer.LAYER_METRICS:
        print(f"{name} {metrics[name]:.6g} {unit}")
    return metrics, dict(tracer.LAYER_METRICS), plain + traced_res


def run(args) -> dict:
    if not (SRC / "colorrep" / "cli.py").is_file():
        raise BenchError(f"no colorrep sources under {SRC}")
    wanted = declared(args.trace)
    threads = blas_threads()
    env = child_env(threads)
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    limit_at = time.monotonic() + RUN_LIMIT_S
    try:
        tasks, setup_times = setup(args.workload, args.seed, work, env)
        record = {"workload": args.workload, "why": gen.WHY[args.workload],
                  "trace": args.trace, "seconds": args.seconds,
                  "environment": environment(args.seed, threads),
                  "setup_times_s": setup_times}
        print("environment " + json.dumps(record["environment"]))
        if args.trace:
            metrics, units, results = traced(tasks, env, work, logs, limit_at,
                                             record)
        else:
            metrics, units, results = untraced(tasks, env, logs, limit_at,
                                               args.seconds, record)
        for r in results:
            if r["known_defect"]:
                print(f"task {r['id']} KNOWN DEFECT: {r['failure']}")
            elif r["failure"]:
                print(f"task {r['id']} FAILED: {r['failure']}")
        failed = unexpected(results)
        record.update(metrics=metrics, units=units, tasks=results)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        return {"correct": not failed, "attempted": len(results),
                "failed": len(failed), "metrics": emit(metrics, units, wanted)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through spawn() so that the running task is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
