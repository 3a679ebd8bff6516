"""Command-line front door.

Thin wrappers over the library: every subcommand parses arguments,
calls one or two library operations, and serializes the result.  Exit
codes are CI-oriented: 0 pass, 1 fail, 2 incomplete, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import os
import re
import sys
import tempfile

from .constructions import (CONSTRUCTION_FAMILIES, CertificationError,
                            ConstructionSpec, build_construction)
from .counting import Pattern, count_copies
from .cycles import EMPTY_FAMILY, ForbiddenFamily, count_cycles
from .graph import (Graph, complete_bipartite, complete_graph, cycle_graph,
                    is_tree, path_with_edges)
from .graph6 import from_graph6, to_graph6
from .params import beta, degeneracy, min_edge_degree_sum, tree_partition
from .planarity import is_planar
from .search import (DEFAULT_VERTEX_CAP, SearchBudget, SearchIncomplete,
                     _check_n, _deadline, _left, extremal_number,
                     record_to_json)
from .verify import CLAIM_VERTEX_CAP, CLAIMS, SEARCH_CLAIMS, run_claim

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCOMPLETE = 2
EXIT_USAGE = 64


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def parse_pattern(text: str) -> Graph:
    """Named shorthand or graph6.  P_k is the path with k edges."""
    m = re.fullmatch(r"C(\d+)", text)
    if m:
        k = int(m.group(1))
        if k < 3:
            raise UsageError(f"cycle length must be >= 3: {text}")
        return cycle_graph(k)
    m = re.fullmatch(r"P(\d+)", text)
    if m:
        return path_with_edges(int(m.group(1)))
    m = re.fullmatch(r"K(\d+)_(\d+)", text)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"K(\d+)", text)
    if m:
        return complete_graph(int(m.group(1)))
    try:
        return from_graph6(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse pattern {text!r}: {exc}")


def parse_forbid(text: str | None) -> ForbiddenFamily:
    """Comma list of cycle lengths, with or without the C prefix."""
    if not text:
        return EMPTY_FAMILY
    lengths = set()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        m = re.fullmatch(r"C?(\d+)", item)
        if not m:
            raise UsageError(f"cannot parse forbidden cycle {item!r}")
        lengths.add(int(m.group(1)))
    try:
        return ForbiddenFamily(frozenset(lengths))
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise UsageError(f"cannot parse range {text!r} (expected lo..hi)")
    lo, hi = int(m.group(1)), int(m.group(2) or m.group(1))
    if lo > hi:
        raise UsageError(f"range {text!r} is reversed (expected lo..hi)")
    return lo, hi


def _parse_params(text: str | None) -> dict:
    """Comma-separated key=value construction parameters; values are
    integers except `tree`, which takes a pattern name or graph6."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"parameter {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in out:
            raise UsageError(f"parameter {key!r} is given twice")
        if key == "tree":
            out[key] = parse_pattern(value)
        else:
            try:
                out[key] = int(value)
            except ValueError:
                raise UsageError(f"parameter {key!r} needs an integer value")
    return out


def _budget(args, default_cap: int = DEFAULT_VERTEX_CAP) -> SearchBudget:
    """The options as given; SearchBudget refuses values out of range."""
    cap, jobs = args.max_vertices, args.jobs
    return SearchBudget(max_vertices=default_cap if cap is None else cap,
                        time_limit=args.budget_seconds,
                        parallel_width=1 if jobs is None else jobs)


def _emit(args, payload: dict | str) -> None:
    """Write a JSON payload, or text as it is, to --output or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(
        payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ======================================================================
# Subcommands
# ======================================================================

def _cmd_is_planar(args) -> int:
    g = parse_pattern(args.graph)
    verdict = is_planar(g, want_witness=args.witness)
    payload = {"graph": to_graph6(g), "planar": verdict.is_planar}
    if args.witness and not verdict.is_planar:
        payload["witness_kind"] = verdict.witness_kind
        payload["witness_edges"] = sorted(map(list, verdict.witness_edges))
    _emit(args, payload)
    return EXIT_PASS if verdict.is_planar else EXIT_FAIL


def _cmd_count_cycles(args) -> int:
    g = parse_pattern(args.graph)
    _emit(args, {"graph": to_graph6(g), "k": args.k,
                 "count": count_cycles(g, args.k)})
    return EXIT_PASS


def _cmd_count(args) -> int:
    g = parse_pattern(args.graph)
    pattern = Pattern.from_graph(parse_pattern(args.pattern), args.pattern)
    _emit(args, {"graph": to_graph6(g), "pattern": args.pattern,
                 "automorphisms": pattern.automorphisms,
                 "count": count_copies(pattern, g)})
    return EXIT_PASS


def _cmd_params(args) -> int:
    g = parse_pattern(args.graph)
    wit = beta(g, args.ell)
    payload = {
        "graph": to_graph6(g),
        "ell": args.ell,
        "beta": wit.value,
        "beta_witness": [list(c) for c in wit.components],
        "degeneracy": degeneracy(g),
        "min_edge_degree_sum": min_edge_degree_sum(g),
    }
    if is_tree(g) and g.n > 1:
        part = tree_partition(g, args.ell)
        payload["tree_partition"] = {
            f.name: sorted(getattr(part, f.name))
            for f in dataclasses.fields(part) if f.name != "path_forest"}
    _emit(args, payload)
    return EXIT_PASS


def _cmd_construct(args) -> int:
    spec = ConstructionSpec(args.family, _parse_params(args.params))
    try:
        out = build_construction(spec, n=args.n)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.format == "graph6":
        _emit(args, to_graph6(out.graph))
    else:
        cert = out.certification
        _emit(args, {
            "family": args.family,
            "graph": to_graph6(out.graph),
            "vertices": out.graph.n,
            "edges": out.graph.edge_count,
            "labels": out.label_table,
            "certification": {
                "planar": cert.planar,
                "family": list(cert.family_lengths),
                "family_free": cert.family_free,
                "pattern": cert.pattern_name,
                "declared_count": cert.declared_count,
                "computed_count": cert.computed_count,
                "count_is_exact": cert.count_is_exact,
            }})
    return EXIT_PASS


def _cmd_search(args) -> int:
    pattern = Pattern.from_graph(parse_pattern(args.pattern), args.pattern)
    family = parse_forbid(args.forbid)
    budget = _budget(args)
    record = extremal_number(args.n, pattern, family, budget,
                             require_planar=not args.no_planar,
                             require_connected=args.connected)
    _emit(args, record_to_json(record))
    return EXIT_PASS if record.status == "complete" else EXIT_INCOMPLETE


def _cmd_verify(args) -> int:
    if args.claim in CLAIMS and args.claim not in SEARCH_CLAIMS and (
            args.max_vertices is not None or args.jobs is not None):
        raise UsageError(
            f"claim {args.claim!r} reads neither --max-vertices nor --jobs; "
            f"only {' and '.join(SEARCH_CLAIMS)} do")
    report = run_claim(args.claim, _budget(args, default_cap=CLAIM_VERTEX_CAP))
    payload = {"claim": report.claim_id, "status": report.status,
               "runtime_s": round(report.runtime, 3),
               "details": list(report.details)}
    if report.details:
        slowest = max(report.details, key=lambda d: d["runtime_s"])
        payload["slowest"] = {"instance": slowest["instance"],
                              "runtime_s": slowest["runtime_s"]}
    if not args.all_details:
        payload["details"] = [d for d in report.details if not d["ok"]]
        payload["checks"] = len(report.details)
    _emit(args, payload)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
            "incomplete": EXIT_INCOMPLETE}[report.status]


# the keys each table kind reads
_TABLE_KEYS = {"extremal": ("n", "pattern", "forbid"),
               "beta": ("k", "ell", "graph")}


def _table_rows(args):
    tokens = args.spec.split()
    if not tokens:
        raise UsageError("empty table spec")
    kind, kv = tokens[0], {}
    if kind not in _TABLE_KEYS:
        raise UsageError(f"unknown table kind {kind!r} (use extremal or beta)")
    if kind == "beta" and (args.max_vertices, args.jobs,
                           args.budget_seconds) != (None, None, None):
        raise UsageError("a beta table runs no search, so it reads none of "
                         "--max-vertices, --jobs and --budget-seconds")
    for token in tokens[1:]:
        if "=" not in token:
            raise UsageError(f"table spec token {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key not in _TABLE_KEYS[kind]:
            raise UsageError(f"{kind} table reads only "
                             f"{', '.join(_TABLE_KEYS[kind])}, not {key!r}")
        if key in kv:
            raise UsageError(f"table spec gives {key!r} twice")
        kv[key] = value
    if kind == "extremal":
        lo, hi = _parse_range(kv.get("n", "4..7"))
        pattern = Pattern.from_graph(parse_pattern(kv.get("pattern", "C5")),
                                     kv.get("pattern", "C5"))
        family = parse_forbid(kv.get("forbid", "C4"))
        header = ["n", "max_count", "graphs_explored", "status", "witnesses"]
        rows = []
        budget = _budget(args)
        for n in range(lo, hi + 1):
            _check_n(n, budget)
        # the rows share the time limit; once it has passed, each size
        # left is listed as an incomplete row with nothing scanned
        deadline = _deadline(budget)
        for n in range(lo, hi + 1):
            try:
                rec = extremal_number(n, pattern, family,
                                      _left(budget, deadline))
            except SearchIncomplete:
                rows.append([n, 0, 0, "incomplete", ""])
                continue
            rows.append([n, rec.max_count, rec.graphs_explored, rec.status,
                         ";".join(to_graph6(f.as_graph()) for f in rec.witnesses)])
        return header, rows
    klo, khi = _parse_range(kv.get("k", "1..6"))
    elo, ehi = _parse_range(kv.get("ell", "1..3"))
    shape = kv.get("graph", "path")
    if shape not in ("path", "cycle"):
        raise UsageError(f"beta table graph must be path or cycle, got {shape!r}")
    if shape == "cycle" and klo < 3:
        raise UsageError("cycle beta table needs k >= 3")
    graph = path_with_edges if shape == "path" else cycle_graph
    return ["k", "ell", "beta"], [[k, ell, beta(graph(k), ell).value]
                                  for k in range(klo, khi + 1)
                                  for ell in range(elo, ehi + 1)]


def _cmd_table(args) -> int:
    header, rows = _table_rows(args)
    records = [dict(zip(header, r)) for r in rows]
    base = args.output
    with open(base + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, "rows": records},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {base}.csv and {base}.json ({len(rows)} rows)")
    incomplete = any(r.get("status") == "incomplete" for r in records)
    return EXIT_INCOMPLETE if incomplete else EXIT_PASS


# ======================================================================
# Parser wiring
# ======================================================================

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="planar-turan",
        description="Count small subgraph patterns in planar graphs with "
                    "forbidden cycles: constructions, exhaustive search, "
                    "and verification sweeps.",
        epilog="Patterns accept shorthand (C5, P3 = path with 3 edges, K4, "
               "K2_3) or graph6.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--budget-seconds", type=float)
    limits.add_argument("--jobs", type=int)
    limits.add_argument("--max-vertices", type=int)

    p = sub.add_parser("is-planar", parents=[output],
                       help="planarity verdict for a graph")
    p.add_argument("--graph", required=True, help="graph6 or pattern shorthand")
    p.add_argument("--witness", action="store_true",
                   help="include a forbidden-subdivision witness when non-planar")
    p.set_defaults(fn=_cmd_is_planar)

    p = sub.add_parser("count-cycles", parents=[output],
                       help="number of k-cycles in a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_count_cycles)

    p = sub.add_parser("count", parents=[output],
                       help="number of pattern copies in a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("params", parents=[output],
                       help="beta, degeneracy, and related parameters")
    p.add_argument("--graph", required=True)
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("construct", parents=[output],
                       help="build a certified construction")
    p.add_argument("--family", required=True,
                   help=", ".join(CONSTRUCTION_FAMILIES))
    p.add_argument("--params", help="comma list, e.g. k=6 or t=3,s=2 or "
                                    "tree=P4,ell=2")
    p.add_argument("--n", type=int, help="vertex budget (families that take n)")
    p.add_argument("--format", choices=("json", "graph6"), default="json")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("search", parents=[output, limits],
                       help="exact extremal value by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--forbid", help="comma list of cycle lengths, e.g. C4,C6")
    p.add_argument("--connected", action="store_true",
                   help="restrict the search space to connected graphs")
    p.add_argument("--no-planar", action="store_true",
                   help="drop the planarity constraint")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", parents=[output, limits],
                       help="run a named verification claim")
    p.add_argument("--claim", required=True, help=", ".join(sorted(CLAIMS)))
    p.add_argument("--all-details", action="store_true",
                   help="emit passing instances too, not only failures")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", parents=[limits],
                       help="emit a CSV/JSON sweep table")
    p.add_argument("--spec", required=True,
                   help='e.g. "extremal n=4..7 pattern=C5 forbid=C4" or '
                        '"beta graph=path k=1..6 ell=1..3"')
    p.add_argument("--output", required=True, help="output base path")
    p.set_defaults(fn=_cmd_table)
    return parser


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or cannot be written, or that is itself a directory; `table` writes
    <base>.csv and <base>.json, so both are checked.  A file is made and
    removed in the directory: `os.access` says yes to root for /proc."""
    if not args.output:
        return
    suffixes = (".csv", ".json") if args.command == "table" else ("",)
    for path in (args.output + suffix for suffix in suffixes):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        fd, probe = tempfile.mkstemp(prefix=".planar-turan-probe-", dir=directory)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    os.remove(probe)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        return args.fn(args)
    except ValueError as exc:  # UsageError, ConstructionError, refused inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an --output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
