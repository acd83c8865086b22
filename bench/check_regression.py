#!/usr/bin/env python3
"""Perf-regression gate over the bench JSONs.

Each CI run appends its fresh BENCH_*.json files to a history directory
(one snapshot per run id, persisted through the actions cache). The
baseline for every metric is the *trailing median* over the most recent
snapshots (up to 5): a single noisy run can neither fail the gate nor
poison the baseline, so the gate is HARD -- a geometric-mean drop beyond
the threshold exits non-zero and fails CI.

Soft mode happens exactly once per cold cache: when the history directory
holds no usable snapshots there is nothing trustworthy to compare
against, so the script warns, optionally seeds the history, and passes.

Only metrics present in both the baseline and the fresh files are
compared, so CI smoke runs (tiny budgets, fewer thread points) still
line up with fuller sweeps. An availability of 0 is kept, not dropped:
a fresh value of 0 against a positive baseline is a collapse and fails
the gate by name, whatever the geomean says. A baseline of 0 gives no
ratio, so that metric is skipped with a warning.

Fresh crash reports must also add up: every crashscale point and every
scrape cell must have unplanned_failures == unplanned_recoveries +
unrecovered_hosts + unplanned_in_flight, or the gate fails and names the
cell. Cells that lack any of the four counts (files written before the
in-flight count existed) are skipped. A cell that saw unplanned failures
but completed no recovery fails by name too: a run too short for any
crash ladder to finish says nothing about recovery.

Usage:
  check_regression.py [--history-dir DIR] [--fresh-dir DIR]
                      [--threshold 0.15] [--append-history RUN_ID]
                      [--keep 10]
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys

SUITE_FILES = ["BENCH_sched.json", "BENCH_runner.json", "BENCH_pdes.json",
               "BENCH_scale.json", "BENCH_microrec.json",
               "BENCH_crashscale.json", "BENCH_scrape.json"]
MEDIAN_WINDOW = 5


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"  [skip] {path}: {e}")
        return None


def sched_metrics(doc):
    """workload name -> production-queue events/s. Snapshots written
    before the column was renamed call it calendar_queue."""
    out = {}
    for w in doc.get("workloads", []):
        queue = w.get("event_queue", w.get("calendar_queue", {}))
        eps = queue.get("events_per_sec")
        if eps:
            out[f"sched/{w['name']}"] = float(eps)
    return out


def runner_metrics(doc):
    """thread count -> speedup vs sequential (portable across machines,
    unlike raw wall seconds)."""
    out = {}
    if doc.get("degenerate_scaling"):
        return out
    for s in doc.get("scaling", []):
        sp = s.get("speedup_vs_sequential")
        if sp and s.get("threads"):
            out[f"runner/threads={s['threads']}"] = float(sp)
    return out


def pdes_metrics(doc):
    """worker count -> committed events per wall-second through the
    parallel engine. Speedups are skipped on single-core machines
    (degenerate_scaling), but throughput still catches engine-side
    slowdowns there."""
    out = {}
    degenerate = doc.get("degenerate_scaling", False)
    for s in doc.get("strong_scaling", []):
        w, wall = s.get("workers"), s.get("wall_seconds")
        if not w or not wall:
            continue
        if s.get("events"):
            out[f"pdes/eps_workers={w}"] = float(s["events"]) / float(wall)
        if not degenerate and s.get("speedup_vs_1"):
            out[f"pdes/speedup_workers={w}"] = float(s["speedup_vs_1"])
    return out


def scale_metrics(doc):
    """Datacenter-scale fig9 run: completed sessions per wall-second (the
    headline throughput) and the p99 pooled availability. Both are
    higher-is-better ratios, so they drop straight into the geomean; the
    availability ratio hovers at 1.0 and only moves when the sharded
    control plane starts dropping sessions it used to absorb."""
    out = {}
    sps = doc.get("sessions_per_sec")
    if sps:
        out["scale/sessions_per_sec"] = float(sps)
    p99 = doc.get("p99_availability")
    if p99 is not None:
        out["scale/p99_availability"] = float(p99)
    return out


def microrec_metrics(doc):
    """Micro-recovery ladder: availability of the micro rung at the
    highest swept fault rate. A higher-is-better ratio pinned near 1.0;
    it moves only when the in-place recovery path stops absorbing
    crashes it used to, which is exactly the regression to catch."""
    out = {}
    avail = doc.get("availability_at_base_rate")
    if avail is not None:
        out["microrec/availability_at_base_rate"] = float(avail)
    return out


def crashscale_metrics(doc):
    """Fleet-level crossover: the micro ladder's p99 session availability
    at the base steady fault rate, 1000 hosts. Higher is better and sits
    near 1.0; it collapses when failure-reactive admission, the recovery
    drivers, or crash-evict/readmit stop holding the fleet up under
    steady unplanned VMM failures."""
    out = {}
    p99 = doc.get("p99_availability_at_base_rate")
    if p99 is not None:
        out["crashscale/p99_availability_at_base_rate"] = float(p99)
    return out


def scrape_metrics(doc):
    """Telemetry plane. Both headline numbers are lower-is-better, so
    they enter the geomean as inverted ratios pinned in (0, 1]:

    - detection_latency_p99: 1e6 / (1e6 + p99_us) -- how fast a dead
      host goes scrape-dark vs the watchdog's ground truth. Falls when
      the scraper/SLO path starts taking extra rounds to notice.
    - overhead_pct: 1 / (1 + max(0, overhead)/100) -- executed-event
      overhead of the scrape plane vs the wire-tap baseline at the
      tightest interval. Deterministic (event counts, not wall time);
      falls when the plane starts costing more simulation work."""
    out = {}
    p99 = doc.get("detection_latency_p99_us")
    if p99 is not None and float(p99) > 0:
        out["scrape/detection_latency_p99"] = 1e6 / (1e6 + float(p99))
    ovh = doc.get("event_overhead_pct")
    if ovh is not None:
        out["scrape/overhead_pct"] = 1.0 / (1.0 + max(0.0, float(ovh)) / 100.0)
    return out


EXTRACTORS = {
    "BENCH_sched.json": sched_metrics,
    "BENCH_runner.json": runner_metrics,
    "BENCH_pdes.json": pdes_metrics,
    "BENCH_scale.json": scale_metrics,
    "BENCH_microrec.json": microrec_metrics,
    "BENCH_crashscale.json": crashscale_metrics,
    "BENCH_scrape.json": scrape_metrics,
}


IDENTITY_KEYS = ("unplanned_failures", "unplanned_recoveries",
                 "unrecovered_hosts", "unplanned_in_flight")


def report_cells(fname, doc):
    """(name, cell) for every per-cell crash report in a crashscale or
    scrape JSON."""
    if fname == "BENCH_crashscale.json":
        for ladder in doc.get("ladders", []):
            for point in ladder.get("points", []):
                yield (f"crashscale/{ladder.get('name')}"
                       f"@rate={point.get('rate')}", point)
    elif fname == "BENCH_scrape.json":
        for row in doc.get("rates", []):
            rate = row.get("rate")
            yield f"scrape/baseline@rate={rate}", row.get("baseline", {})
            for cell in row.get("scraped", []):
                yield (f"scrape/interval={cell.get('interval_s')}"
                       f"@rate={rate}", cell)


def unbalanced_reports(docs):
    """Descriptions of the fresh cells whose unplanned failures are not
    recoveries + unrecovered + in flight."""
    out = []
    for fname, doc in docs.items():
        for name, cell in report_cells(fname, doc):
            if not all(k in cell for k in IDENTITY_KEYS):
                continue
            failures, recoveries, unrecovered, in_flight = (
                cell[k] for k in IDENTITY_KEYS)
            if failures != recoveries + unrecovered + in_flight:
                out.append(f"{name}: unplanned_failures {failures} != "
                           f"recoveries {recoveries} + unrecovered "
                           f"{unrecovered} + in_flight {in_flight}")
    return out


def stalled_reports(docs):
    """Descriptions of the fresh cells with unplanned failures and no
    completed recovery."""
    out = []
    for fname, doc in docs.items():
        for name, cell in report_cells(fname, doc):
            failures = cell.get("unplanned_failures")
            if failures and cell.get("unplanned_recoveries") == 0:
                out.append(f"{name}: {failures} unplanned failures, "
                           f"0 recoveries")
    return out


def snapshot_ids(history_dir):
    """Snapshot directories, oldest first. GitHub run ids are increasing
    integers; fall back to lexicographic order for anything else."""
    if not os.path.isdir(history_dir):
        return []
    ids = [d for d in os.listdir(history_dir)
           if os.path.isdir(os.path.join(history_dir, d))]

    def key(d):
        return (0, int(d)) if d.isdigit() else (1, d)

    return sorted(ids, key=key)


def history_metrics(history_dir):
    """metric -> trailing median over the last MEDIAN_WINDOW snapshots."""
    samples = {}
    ids = snapshot_ids(history_dir)[-MEDIAN_WINDOW:]
    for run_id in ids:
        for fname, extract in EXTRACTORS.items():
            doc = load(os.path.join(history_dir, run_id, fname))
            if doc is None:
                continue
            for metric, value in extract(doc).items():
                samples.setdefault(metric, []).append(value)
    if ids:
        print(f"history: {len(ids)} snapshot(s) "
              f"[{ids[0]} .. {ids[-1]}], median window {MEDIAN_WINDOW}")
    return {m: statistics.median(vs) for m, vs in samples.items()}


def fresh_docs(fresh_dir):
    """file name -> parsed fresh JSON, for the files that loaded."""
    docs = {}
    for fname in EXTRACTORS:
        doc = load(os.path.join(fresh_dir, fname))
        if doc is not None:
            docs[fname] = doc
    return docs


def fresh_metrics(docs):
    out = {}
    for fname, doc in docs.items():
        out.update(EXTRACTORS[fname](doc))
    return out


def append_history(history_dir, fresh_dir, run_id, keep):
    dst = os.path.join(history_dir, str(run_id))
    os.makedirs(dst, exist_ok=True)
    copied = 0
    for fname in SUITE_FILES:
        src = os.path.join(fresh_dir, fname)
        if os.path.isfile(src):
            shutil.copy2(src, os.path.join(dst, fname))
            copied += 1
    print(f"appended snapshot '{run_id}' ({copied} file(s)) to {history_dir}")
    for stale in snapshot_ids(history_dir)[:-keep]:
        shutil.rmtree(os.path.join(history_dir, stale), ignore_errors=True)
        print(f"pruned stale snapshot '{stale}'")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--history-dir", default="bench-history",
                    help="directory of per-run BENCH_*.json snapshots")
    ap.add_argument("--fresh-dir", default=".",
                    help="directory holding the freshly generated JSONs")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated geomean regression (0.15 = 15%%)")
    ap.add_argument("--append-history", metavar="RUN_ID", default=None,
                    help="after comparing, store the fresh JSONs as "
                         "snapshot RUN_ID")
    ap.add_argument("--keep", type=int, default=10,
                    help="snapshots to retain when appending")
    args = ap.parse_args()

    baseline = history_metrics(args.history_dir)
    docs = fresh_docs(args.fresh_dir)
    fresh = fresh_metrics(docs)

    status = 0
    unbalanced = unbalanced_reports(docs)
    for line in unbalanced:
        print(f"REGRESSION (report does not add up): {line}")
    stalled = stalled_reports(docs)
    for line in stalled:
        print(f"REGRESSION (no crash ladder completed): {line}")
    bad_reports = bool(unbalanced or stalled)
    if bad_reports:
        status = 1
    if not baseline:
        print("WARNING: no usable history snapshots -- nothing trustworthy "
              "to gate throughput against; soft pass on throughput. The "
              "gate hardens once a snapshot exists.")
    else:
        pairs = []
        collapsed = []
        for key in sorted(baseline.keys() & fresh.keys()):
            if baseline[key] <= 0:
                print(f"  WARNING: {key} has a baseline of "
                      f"{baseline[key]:g}; no ratio, skipped")
                continue
            ratio = fresh[key] / baseline[key]
            print(f"  {key:<28} baseline {baseline[key]:>12.2f}  "
                  f"fresh {fresh[key]:>12.2f}  ratio {ratio:.3f}")
            if ratio <= 0:
                collapsed.append(key)
            else:
                pairs.append((key, ratio))
        if collapsed:
            print(f"REGRESSION (hard gate): {', '.join(collapsed)} fell to "
                  f"0 from a positive baseline")
            status = 1
        if pairs:
            geomean = math.exp(
                sum(math.log(r) for _, r in pairs) / len(pairs))
            floor = 1.0 - args.threshold
            print(f"\ngeomean throughput ratio (fresh/median-baseline): "
                  f"{geomean:.3f} over {len(pairs)} metrics "
                  f"(floor {floor:.2f})")
            if geomean < floor:
                worst = min(pairs, key=lambda p: p[1])
                print(f"REGRESSION (hard gate): geomean below floor; worst "
                      f"metric {worst[0]} at {worst[1]:.3f}")
                status = 1
            elif not collapsed and not bad_reports:
                print("OK: within threshold")
        elif not collapsed:
            print("WARNING: history exists but shares no metrics with the "
                  "fresh run; soft pass on throughput")

    if args.append_history is not None and status == 0:
        append_history(args.history_dir, args.fresh_dir,
                       args.append_history, max(1, args.keep))
    elif args.append_history is not None:
        print("not appending a regressed run to history")
    return status


if __name__ == "__main__":
    sys.exit(main())
