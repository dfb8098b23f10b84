#!/usr/bin/env python3
"""Noise-aware comparison of two perf_report outputs (BENCH_core.json).

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json
        [--baseline-manifest M1.json] [--candidate-manifest M2.json]
        [--warn-ratio 1.25] [--fail-ratio 1.5] [--min-ms 1.0]
        [--fail-on fail|warn|never]

Joins the probe tables (scenario_build, decentralized_run, experiment,
since schema 1.3 sharded_run, since 1.4 serving_run, and since 1.6
timeline_build) on the "ues" scale (plus "shards" for sharded rows;
serving rows join on the fault arm and steady-state/horizon shape,
timeline rows on the workload name) and classifies each wall-time row:

    PASS  candidate/baseline ratio below --warn-ratio, or both sides are
          under the --min-ms noise floor (sub-millisecond probes jitter
          far more than 25% on shared machines)
    WARN  ratio in [--warn-ratio, --fail-ratio)
    FAIL  ratio >= --fail-ratio

Semantic counters (rounds, messages_sent, matching_rounds, since
schema 1.2 the allocation counters when both reports measured them,
since 1.3 the sharded partition/reconcile accounting, since 1.4 the
serving churn-rate and recovery counters, and since 1.5 the flight-
recorder telemetry: flight_events_retained, postmortem_dumps,
metric_windows, and since 1.6 the timeline's slots and candidate_slots)
are protocol outputs, not timings: any change is reported as WARN so a
"perf-only" change that silently altered protocol behaviour shows up.
wall_ms_flight_off (schema 1.5) is a timing like wall_ms and is never
compared directly — the overhead budget lives in the report itself.
The serving latency percentiles (latency_p50_ns/p99/p999) are wall-clock
measurements like wall_ms and stay warn-only under every gate.
With --fail-on-semantic those changes are FAIL instead (the CI hard
gate: wall-clock stays warn-only, deterministic counters do not drift),
except that an allocation-count *decrease* stays WARN — fewer
allocations is an improvement that just needs a baseline refresh.
messages_per_sec is wall-clock derived and never compared, nor are the
timeline rows' minor_faults (a page count, not a protocol output). Peak
RSS regressions beyond --fail-ratio are WARN (allocator noise). Experiment
rows with different seed counts, and reports with different quick-mode
scales, are skipped as incomparable rather than compared apples-to-pears.

When run manifests (docs/PROVENANCE.md) sit next to the reports, pass
them too: differing git revisions are expected and printed as context,
but a build-flavor mismatch (sanitizers, build type) makes every timing
row incomparable and is reported as WARN.

Exit status: 1 when the worst class reaches --fail-on (default "fail");
CI's perf-regression job runs with --fail-on never (warn-only gate).
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

SEMANTIC_KEYS = ("rounds", "messages_sent", "matching_rounds")
# Schema 1.2 allocation counters: deterministic, but only meaningful when
# the emitting binary linked the counting allocator (alloc_measured).
ALLOC_KEYS = ("alloc_settle_rounds", "steady_state_allocations", "round_loop_allocations")
# Schema 1.3 sharded_run counters: the region partition and reconcile
# pass are deterministic, so any drift in the shard accounting is a
# protocol change, not noise. Rows join on (ues, shards).
SHARDED_KEYS = ("interior_ues", "boundary_ues", "boundary_ues_reconciled",
                "cloud_only_ues", "reconcile_rounds", "max_shard_rounds")
# Schema 1.4 serving_run counters: the event timeline and every decision
# on it are a pure function of the seed, so the churn/recovery accounting
# is semantic. The latency percentiles are wall clock and warn-only.
SERVING_KEYS = ("events", "arrivals", "departures", "moves", "reassociations",
                "churn_rate", "cross_region_moves", "readmitted", "orphaned",
                "recovery_events_max", "resolves")
# Schema 1.5 flight-recorder telemetry: retained-event counts, post-mortem
# dump counts, and metric-window counts are deterministic per run (the
# recorder shards and merges like the tracer), so drift means the
# always-on instrumentation changed behaviour — semantic, not noise.
TELEMETRY_KEYS = ("flight_events_retained", "postmortem_dumps", "metric_windows")
# Schema 1.6 timeline_build counters: the slot universe is a pure
# function of the workload and seed.
TIMELINE_KEYS = ("slots", "candidate_slots")
LATENCY_KEYS = ("latency_p50_ns", "latency_p99_ns", "latency_p999_ns")
KNOWN_SCHEMAS = ("dmra-perf-report/1", "dmra-perf-report/1.1", "dmra-perf-report/1.2",
                 "dmra-perf-report/1.3", "dmra-perf-report/1.4",
                 "dmra-perf-report/1.5", "dmra-perf-report/1.6")
# Tables a baseline may predate: skipped, not reported, when it has none.
# The first three exist in every schema.
LATER_TABLES = ("sharded_run", "serving_run", "timeline_build")


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")


class Report:
    """One comparison row: status + human-readable detail."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, str]] = []  # (status, probe, detail)
        self.semantic_fail = False  # a deterministic counter drifted under the hard gate

    def add(self, status: str, probe: str, detail: str) -> None:
        self.rows.append((status, probe, detail))

    def worst(self) -> str:
        order = {"PASS": 0, "SKIP": 0, "WARN": 1, "FAIL": 2}
        return max((r[0] for r in self.rows), key=lambda s: order.get(s, 0), default="PASS")


def check_schema(report: Report, name: str, doc: dict) -> None:
    schema = doc.get("schema", "<missing>")
    if schema not in KNOWN_SCHEMAS:
        report.add("WARN", "schema", f"{name}: unknown schema {schema!r}")


def provenance_line(doc: dict, manifest: dict | None) -> str:
    git = doc.get("git") or (manifest or {}).get("git") or "unknown"
    build = doc.get("build") or (manifest or {}).get("build") or {}
    flavor = build.get("type", "unknown")
    san = build.get("sanitizers", "")
    return f"git {git}, {flavor}" + (f" +{san}" if san else "")


def build_flavor(doc: dict, manifest: dict | None) -> tuple:
    build = doc.get("build") or (manifest or {}).get("build") or {}
    return (build.get("type"), build.get("sanitizers"))


def compare_wall(report: Report, probe: str, base: dict, cand: dict,
                 args: argparse.Namespace) -> None:
    b, c = base["wall_ms"], cand["wall_ms"]
    if b < args.min_ms and c < args.min_ms:
        report.add("PASS", probe, f"{b:.3f} -> {c:.3f} ms (below {args.min_ms} ms noise floor)")
        return
    if b <= 0.0:
        report.add("SKIP", probe, f"non-positive baseline wall_ms {b}")
        return
    ratio = c / b
    detail = f"{b:.3f} -> {c:.3f} ms ({ratio:.2f}x)"
    if ratio >= args.fail_ratio:
        report.add("FAIL", probe, detail)
    elif ratio >= args.warn_ratio:
        report.add("WARN", probe, detail)
    else:
        report.add("PASS", probe, detail)


def compare_semantics(report: Report, probe: str, base: dict, cand: dict,
                      args: argparse.Namespace) -> None:
    keys = SEMANTIC_KEYS
    if base.get("alloc_measured") and cand.get("alloc_measured"):
        keys = SEMANTIC_KEYS + ALLOC_KEYS
    if "shards" in base and "shards" in cand:
        keys = keys + SHARDED_KEYS
    if "faults" in base and "faults" in cand:
        keys = SERVING_KEYS  # serving rows carry no bus/matching counters
    if "workload" in base and "workload" in cand:
        keys = TIMELINE_KEYS
    # Schema 1.5: flight telemetry rides on both decentralized and serving
    # rows; compared only when both reports emitted it.
    keys = keys + TELEMETRY_KEYS
    for key in keys:
        if key not in base or key not in cand:
            continue  # pre-1.2 report on one side: nothing to compare
        b, c = base[key], cand[key]
        if b == c:
            continue
        status = "WARN"
        if args.fail_on_semantic:
            improved = (key in ALLOC_KEYS
                        and isinstance(b, (int, float)) and isinstance(c, (int, float))
                        and c < b)
            status = "WARN" if improved else "FAIL"
            report.semantic_fail = report.semantic_fail or status == "FAIL"
        report.add(status, f"{probe}.{key}",
                   f"semantic counter changed: {b} -> {c}")


def compare_latency(report: Report, probe: str, base: dict, cand: dict,
                    args: argparse.Namespace) -> None:
    """Serving latency percentiles: wall clock, so never worse than WARN."""
    for key in LATENCY_KEYS:
        if key not in base or key not in cand:
            continue
        b, c = base[key], cand[key]
        if not b or b <= 0.0:
            continue
        ratio = c / b
        status = "WARN" if ratio >= args.fail_ratio else "PASS"
        report.add(status, f"{probe}.{key}",
                   f"{b / 1e3:.2f} -> {c / 1e3:.2f} us ({ratio:.2f}x, warn-only)")


def row_key(row: dict) -> tuple:
    # sharded_run rows sweep shard counts at one scale, so "ues" alone
    # would pair a 4-shard row with a 16-shard one. serving_run rows have
    # no "ues" column: they join on the fault arm + run shape, and
    # timeline_build rows on the workload.
    if "workload" in row:
        return ("timeline", row["workload"])
    if "faults" in row:
        return ("serving", row["faults"], row.get("steady_state_ues"),
                row.get("horizon_events"))
    return (row["ues"], row["shards"]) if "shards" in row else (row["ues"],)


def join_rows(table_base: list, table_cand: list) -> list[tuple[dict, dict]]:
    cand_by_key = {row_key(row): row for row in table_cand}
    return [(row, cand_by_key[row_key(row)]) for row in table_base
            if row_key(row) in cand_by_key]


def compare_reports(report: Report, base: dict, cand: dict, args: argparse.Namespace) -> None:
    for table in ("scenario_build", "decentralized_run", "experiment") + LATER_TABLES:
        pairs = join_rows(base.get(table, []), cand.get(table, []))
        if not pairs:
            if table in LATER_TABLES and not base.get(table):
                continue  # the baseline predates this table's schema
            report.add("SKIP", table, "no common 'ues' scales (quick vs full reports?)")
            continue
        for brow, crow in pairs:
            probe = f"{table}@" + "x".join(str(k) for k in row_key(brow))
            if table == "experiment" and brow.get("seeds") != crow.get("seeds"):
                report.add("SKIP", probe,
                           f"seed counts differ ({brow.get('seeds')} vs {crow.get('seeds')})")
                continue
            compare_wall(report, probe, brow, crow, args)
            compare_semantics(report, probe, brow, crow, args)
            if table == "serving_run":
                compare_latency(report, probe, brow, crow, args)
    b_rss, c_rss = base.get("peak_rss_mib"), cand.get("peak_rss_mib")
    if isinstance(b_rss, (int, float)) and isinstance(c_rss, (int, float)) and b_rss > 0:
        ratio = c_rss / b_rss
        status = "WARN" if ratio >= args.fail_ratio else "PASS"
        report.add(status, "peak_rss_mib", f"{b_rss:.1f} -> {c_rss:.1f} MiB ({ratio:.2f}x)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--baseline-manifest", help="dmra-manifest/1 next to the baseline report")
    ap.add_argument("--candidate-manifest", help="dmra-manifest/1 next to the candidate report")
    ap.add_argument("--warn-ratio", type=float, default=1.25,
                    help="slowdown ratio that starts a WARN (default 1.25)")
    ap.add_argument("--fail-ratio", type=float, default=1.5,
                    help="slowdown ratio that starts a FAIL (default 1.5)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="noise floor: rows where both sides are faster pass (default 1.0)")
    ap.add_argument("--fail-on", choices=("fail", "warn", "never"), default="fail",
                    help="exit 1 when the worst row reaches this class (default fail)")
    ap.add_argument("--fail-on-semantic", action="store_true",
                    help="deterministic-counter drift is FAIL instead of WARN "
                         "(allocation-count decreases stay WARN); the CI hard gate")
    args = ap.parse_args()
    if not args.warn_ratio <= args.fail_ratio:
        ap.error("--warn-ratio must be <= --fail-ratio")

    base = load_json(args.baseline)
    cand = load_json(args.candidate)
    base_manifest = load_json(args.baseline_manifest) if args.baseline_manifest else None
    cand_manifest = load_json(args.candidate_manifest) if args.candidate_manifest else None

    report = Report()
    check_schema(report, "baseline", base)
    check_schema(report, "candidate", cand)

    print(f"baseline : {args.baseline} ({provenance_line(base, base_manifest)})")
    print(f"candidate: {args.candidate} ({provenance_line(cand, cand_manifest)})")
    bf, cf = build_flavor(base, base_manifest), build_flavor(cand, cand_manifest)
    if bf != cf and any(bf) and any(cf):
        report.add("WARN", "build-flavor",
                   f"{bf} vs {cf}: timings are not comparable across build flavors")

    compare_reports(report, base, cand, args)

    width = max((len(p) for _, p, _ in report.rows), default=5)
    print()
    for status, probe, detail in report.rows:
        print(f"{status:4} | {probe:<{width}} | {detail}")
    worst = report.worst()
    print(f"\nresult: {worst}")

    # The semantic hard gate bypasses --fail-on: CI runs wall-clock
    # comparisons with --fail-on never (noisy runners) but still must not
    # let a deterministic counter drift through.
    if report.semantic_fail:
        return 1
    threshold = {"fail": ("FAIL",), "warn": ("FAIL", "WARN"), "never": ()}[args.fail_on]
    return 1 if worst in threshold else 0


if __name__ == "__main__":
    sys.exit(main())
