"""One measured process: set up a workload, run it, print one JSON line.

Modes:
  setup  import planar_turan and build the inputs only;
  op     also run one untraced operation at the workload's width;
  trace  run one untraced operation at the workload's width, one at
         width 1 if that differs, then one traced at width 1, and
         derive the per-module metrics; spans go to --spans.

Each operation runs in a fresh process so that its peak RSS is its own
and no state carries over from an earlier operation.  run.py starts
this script; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CACHE_ENV = "PLANAR_TURAN_CACHE"


def _usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(inputs, width=None, part_walls=None) -> dict:
    """Run one operation untraced; wall, CPU and peak RSS with its gate."""
    own0, kids0 = _usage()
    start = time.perf_counter()
    try:
        result = workloads.run(inputs, width, part_walls)
        problems = workloads.check(inputs.workload, result)
    except Exception:
        result, problems = None, [traceback.format_exc()]
    wall = time.perf_counter() - start
    own1, kids1 = _usage()
    parent_cpu = _cpu(own1) - _cpu(own0)
    worker_cpu = _cpu(kids1) - _cpu(kids0)
    return {"result": result, "problems": problems, "wall_s": wall,
            "cpu_s": parent_cpu + worker_cpu,
            "parent_cpu_s": parent_cpu, "worker_cpu_s": worker_cpu,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (own1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
            "counts": ({} if result is None
                       else workloads.exact_counts(inputs.workload, result))}


def trace(inputs, spans_path: str) -> dict:
    part_walls: dict[str, float] = {}
    own = measure(inputs, part_walls=part_walls)
    ops = [own]
    reference = own
    if inputs.width != 1:
        reference = measure(inputs, width=1)
        ops.append(reference)
        if (own["result"] is not None and reference["result"] is not None
                and own["result"] != reference["result"]):
            own["problems"].append(
                f"width {inputs.width} record differs from the width 1 record")

    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        result, error = workloads.run(inputs, 1), None
    except Exception:
        result, error = None, traceback.format_exc()
    finally:
        traced_wall = time.perf_counter() - start
        tracer.uninstall()
    problems = [error] if error else workloads.check(inputs.workload, result)
    ops.append({"problems": problems})
    tracer.write(spans_path)

    summary = tracer.summary()
    explored = 0 if result is None or inputs.workload == workloads.VERIFY \
        else result.graphs_explored
    metrics = per_module_metrics(summary, explored)
    metrics["search.parent_cpu_s"] = own["parent_cpu_s"]
    metrics["search.worker_cpu_s"] = own["worker_cpu_s"]
    for part, name in workloads.PART_METRICS.items():
        metrics[name] = part_walls.get(part, 0.0)
    metrics["trace.overhead_s"] = traced_wall - reference["wall_s"]
    return {"ops": [op["problems"] for op in ops], "metrics": metrics,
            "summary": summary, "traced_wall_s": traced_wall,
            "untraced_wall_s": reference["wall_s"],
            "counts": own["counts"]}


LAYERS = ("graph", "graph6", "canonical", "planarity", "cycles", "counting",
          "params", "constructions", "bruteforce", "search", "verify")


def per_module_metrics(summary: dict, explored: int) -> dict:
    layers, funcs = summary["layers"], summary["functions"]
    empty = {"calls": 0, "self_s": 0.0, "rejected": 0}

    def func(name: str) -> dict:
        return funcs.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        slot = layers.get(layer, empty)
        m[f"{layer}.calls"] = slot["calls"]
        m[f"{layer}.self_s"] = slot["self_s"]
    with_vertex = func("graph.with_vertex")["calls"]
    m["graph.with_vertex.calls"] = with_vertex
    m["canonical.labeling.calls"] = func("canonical.canonical_labeling")["calls"]
    m["canonical.form.calls"] = func("canonical.canonical_form")["calls"]
    m["canonical.us_per_call"] = 1e6 * ratio(m["canonical.self_s"],
                                             m["canonical.calls"])
    planar = func("planarity.is_planar")
    m["planarity.us_per_call"] = 1e6 * ratio(m["planarity.self_s"],
                                             m["planarity.calls"])
    m["planarity.reject_ratio"] = ratio(planar["rejected"], planar["calls"])
    family = func("cycles.is_family_free")
    m["cycles.family.calls"] = family["calls"]
    m["cycles.family.self_s"] = family["self_s"]
    m["cycles.family.reject_ratio"] = ratio(family["rejected"], family["calls"])
    count = func("cycles.count_cycles")
    m["cycles.count.calls"] = count["calls"]
    m["cycles.count.self_s"] = count["self_s"]
    m["search.classes_per_child"] = ratio(explored, with_vertex)
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "op", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    os.environ.pop(CACHE_ENV, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    inputs = workloads.build_inputs(args.workload, args.seed)
    out = {"setup_s": time.perf_counter() - start}
    if args.mode == "op":
        op = measure(inputs)
        op.pop("result")
        out.update(op)
    elif args.mode == "trace":
        out.update(trace(inputs, args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
