#!/usr/bin/env python3
"""Host-perf trajectory tooling for BENCH_perf.json.

BENCH_perf.json is an append-only array of --perf-json snapshots (one or
more per PR), each tagged by (tool, data_mode, placement, adapt); current
tools emit no data_mode, which reads as "payload". Two commands:

  delta  BENCH_perf.json NEW.json [NEW2.json ...]
      Compare each new snapshot against the latest checked-in entry with
      the same (tool, data_mode, placement, adapt); snapshots without the
      tenant-only keys default to (block, static), so legacy entries keep
      their identity. Flags events/sec regressions beyond
      --threshold (default 10%). NEVER gates: wall-clock throughput varies
      wildly across runners, so the exit code is always 0 — the output is
      for humans reading the CI log. Every snapshot now comes from one
      writer (core::PerfReport) and carries events_per_sec, dpmlsim
      tenants included; checked-in entries without it (tenant snapshots
      written before that) are listed and skipped, never treated as a
      -100% regression; unknown extra fields are ignored.

  append BENCH_perf.json NEW.json [NEW2.json ...] [--label TEXT]
      Append the snapshots to the trajectory array in place (converting a
      legacy single-object file to an array first). Run locally when a PR
      regenerates the snapshot; commit the result.

Only the python3 standard library is used.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def as_array(doc):
    return doc if isinstance(doc, list) else [doc]


def key(entry):
    # Snapshots without data_mode are payload-plane runs: entries that
    # predate the time-only plane, and every snapshot since it was removed.
    # Legacy "timeonly" entries keep their own key. Tenant snapshots additionally carry placement/adapt: a round-robin
    # adaptive run is a different workload from a block static one, so only
    # like-keyed snapshots are comparable.
    return (entry.get("tool", "?"), entry.get("data_mode", "payload"),
            entry.get("placement", "block"), bool(entry.get("adapt", False)))


def cmd_delta(args):
    baseline = {}
    for entry in as_array(load(args.trajectory)):
        baseline[key(entry)] = entry  # later entries win: latest is baseline
    worst = 0.0
    for path in args.snapshots:
        new = load(path)
        k = key(new)
        old = baseline.get(k)
        tag = f"{k[0]}/{k[1]}/{k[2]}/{'adapt' if k[3] else 'static'}"
        if old is None:
            print(f"[perf-delta] {tag}: no checked-in baseline ({path}); "
                  "first entry for this (tool, data_mode, placement, adapt)")
            continue
        old_eps = old.get("events_per_sec", 0)
        new_eps = new.get("events_per_sec", 0)
        if old_eps <= 0 or new_eps <= 0:
            which = "baseline" if old_eps <= 0 else "snapshot"
            print(f"[perf-delta] {tag}: {which} has no events/sec; skipped")
            continue
        change = (new_eps - old_eps) / old_eps * 100.0
        worst = min(worst, change)
        mark = "REGRESSION" if change < -args.threshold else "ok"
        print(f"[perf-delta] {tag}: {old_eps} -> {new_eps} events/sec "
              f"({change:+.1f}%) {mark}")
        for field in ("events", "wall_ms", "instants", "peak_instants",
                      "peak_queue_depth", "peak_rss_kb",
                      "elided_bytes", "frame_pool_hit_rate",
                      "fabric_flows", "max_link_util",
                      "fabric_wakes", "fabric_stale_wakes"):
            if field in new or field in old:
                print(f"[perf-delta]   {field}: {old.get(field, '-')} -> "
                      f"{new.get(field, '-')}")
    if worst < -args.threshold:
        print(f"[perf-delta] worst change {worst:+.1f}% exceeds "
              f"-{args.threshold:.0f}% — informational only, not gating "
              "(runner wall clocks vary)")
    return 0  # never gate


def cmd_append(args):
    trajectory = as_array(load(args.trajectory))
    for path in args.snapshots:
        entry = load(path)
        if args.label:
            entry["label"] = args.label
        trajectory.append(entry)
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"{args.trajectory}: {len(trajectory)} entr"
          f"{'y' if len(trajectory) == 1 else 'ies'}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("delta", help="compare snapshots to the trajectory")
    d.add_argument("trajectory")
    d.add_argument("snapshots", nargs="+")
    d.add_argument("--threshold", type=float, default=10.0,
                   help="events/sec regression percentage to flag")
    d.set_defaults(fn=cmd_delta)

    a = sub.add_parser("append", help="append snapshots to the trajectory")
    a.add_argument("trajectory")
    a.add_argument("snapshots", nargs="+")
    a.add_argument("--label", default="",
                   help="optional label stored on each appended entry")
    a.set_defaults(fn=cmd_append)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
