"""Time to an exact, checked answer for planar_turan's search and verify.

Run from the repository root:

  python3 perfbench/run.py --workload search-c4free-n8-jobs2 --seed 1 \
      --seconds 50 --trace 0

--trace 0 runs untraced operations, each in a fresh process, until
--seconds have passed, and reports the medians of the end-to-end
metrics: wall_s, cpu_s, peak_rss_mb and setup_s.  --trace 1 runs the
operation untraced and then traced in one process and reports the
per-module metrics (see README.md).  Every answer is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A results file with the environment and the exact work counts
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
TIME_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Per-module times that read exactly 0 on every run of a workload that
# never reaches the layer (no search reaches params, no width-1 run has
# workers, ...).  They are printed and saved but kept out of the result
# line, whose times must be measured values.
ZERO_WHEN_UNREACHED = (
    "graph6.self_s", "params.self_s", "constructions.self_s",
    "bruteforce.self_s", "verify.self_s", "search.worker_cpu_s",
    *workloads.PART_METRICS.values(),
)


class ChildFailed(RuntimeError):
    pass


def child(mode: str, workload: str, seed: int, deadline: float,
          spans: str | None = None) -> dict:
    """Run op.py in its own session and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "op.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # the session holds the operation's pool workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{mode} process passed the time limit") from exc
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "networkx": nx_version, "cpu_count": os.cpu_count(),
            "affinity_cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> dict:
    child("setup", workload, seed, deadline)  # writes bytecode; not counted
    setups: list[float] = []
    ops: list[dict] = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        setups.append(child("setup", workload, seed, deadline)["setup_s"])
        ops.append(child("op", workload, seed, deadline))
        setups.append(ops[-1]["setup_s"])
    metrics = {name: statistics.median(op[name] for op in ops)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    samples = {name: [op[name] for op in ops]
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    return {"problems": [op["problems"] for op in ops],
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()},
            "samples": samples,
            "counts": [op["counts"] for op in ops]}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    return "ratio"


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    spans = os.path.join(RESULTS, f"spans-{workload}.jsonl")
    out = child("trace", workload, seed, deadline, spans)
    out["metrics"] = {k: {"value": v, "unit": per_layer_unit(k)}
                      for k, v in out["metrics"].items()}
    out["problems"] = out.pop("ops")
    out["spans_file"] = os.path.relpath(spans, ROOT)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that child() stops the running process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "planar_turan")):
        print(f"no planar_turan sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    try:
        if args.trace:
            report = run_traced(args.workload, args.seed, deadline)
        else:
            report = run_untraced(args.workload, args.seed, args.seconds,
                                  deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = len(report["problems"])
    failed = sum(1 for p in report["problems"] if p)
    report.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted,
                   "environment": environment()})
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    for problems in report["problems"]:
        for problem in problems:
            print(f"FAILED: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {failed} failed")
    rows = dict(report["metrics"])
    rows["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    for name, metric in rows.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    result_metrics = {k: v for k, v in report["metrics"].items()
                      if k not in ZERO_WHEN_UNREACHED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
