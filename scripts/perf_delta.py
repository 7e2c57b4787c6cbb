#!/usr/bin/env python3
"""Host-perf trajectory tooling for BENCH_perf.json.

BENCH_perf.json is an append-only array of --perf-json snapshots (one or
more per PR), each tagged by (tool, data_mode, placement, adapt, check,
cluster, shape, design); current tools emit no data_mode, which reads as
"payload", only a checked `dpmlsim latency` sweep emits check (absent reads
as "off"), and only `dpmlsim latency` emits cluster, shape and design.
A snapshot whose cluster, shape and design no entry carries takes the
legacy baseline of its other members: the latest entry that names none of
the three (written before the latency snapshot named them).
Three commands:

  delta  BENCH_perf.json NEW.json [NEW2.json ...]
      Compare each new snapshot against the latest checked-in entry with
      the same key; snapshots without the tenant-only keys default to
      (block, static) and without check to off, so legacy entries keep
      their identity. Flags events/sec regressions beyond
      --threshold (default 10%). NEVER gates: wall-clock throughput varies
      wildly across runners, so the exit code is always 0 — the output is
      for humans reading the CI log. Every snapshot now comes from one
      writer (core::PerfReport) and carries events_per_sec, dpmlsim
      tenants included; checked-in entries without it (tenant snapshots
      written before that) are listed and skipped, never treated as a
      -100% regression; unknown extra fields are ignored. The matcher
      counters (matches at post and at delivery, entries scanned, deepest
      queues) and the verification counters (invocations verified, bytes
      snapshotted, compared, folded and copied) print when either side
      carries them.

  exact  BENCH_perf.json NEW.json [NEW2.json ...]
      Compare the deterministic members of each new snapshot with the
      latest checked-in entry of the same key, and exit 1 when any differs
      or a snapshot has no baseline. Compared: points, events, resumes,
      callbacks, instants, peak_instants, peak_queue_depth, elided_bytes,
      max_link_util, bg_flows and the fabric_* counts (a member either side
      carries), and the matcher and verification counters when both sides
      carry them. The
      frame-pool counters are left out: they follow what the pool serves,
      which a change may move without changing one simulated event.

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


# The members that tell one dpmlsim latency sweep from another.
SWEEP_MEMBERS = ("cluster", "shape", "design")


def key(entry):
    # Snapshots without data_mode are payload-plane runs: entries that
    # predate the time-only plane, and every snapshot since it was removed.
    # Legacy "timeonly" entries keep their own key. Tenant snapshots additionally carry placement/adapt: a round-robin
    # adaptive run is a different workload from a block static one, so only
    # like-keyed snapshots are comparable.
    # A checked dpmlsim sweep (check tag) is keyed apart from unchecked ones,
    # and a latency sweep by its cluster, shape and design (None if absent).
    return (entry.get("tool", "?"), entry.get("data_mode", "payload"),
            entry.get("placement", "block"), bool(entry.get("adapt", False)),
            entry.get("check", "off"),
            *(entry.get(m) for m in SWEEP_MEMBERS))


def legacy(k):
    """The key k had before snapshots named their cluster, shape and
    design."""
    return k[:5] + (None,) * len(SWEEP_MEMBERS)


def baseline_for(baseline, k):
    return baseline.get(k) or baseline.get(legacy(k))


def label(k):
    tag = f"{k[0]}/{k[1]}/{k[2]}/{'adapt' if k[3] else 'static'}"
    if k[4] != "off":
        tag += f"/check={k[4]}"
    sweep = [v for v in k[5:] if v is not None]
    return "/".join([tag, *sweep])


def cmd_delta(args):
    baseline = latest_baselines(args.trajectory)
    worst = 0.0
    for path in args.snapshots:
        new = load(path)
        k = key(new)
        old = baseline_for(baseline, k)
        tag = label(k)
        if old is None:
            print(f"[perf-delta] {tag}: no checked-in baseline ({path}); "
                  "first entry for this key")
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
                      "frame_pool_hits", "frame_pool_misses",
                      "posted_matches", "delivered_matches", "match_scanned",
                      "peak_posted_queue", "peak_unexpected_queue",
                      *CHECK_MEMBERS,
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


EXACT_MEMBERS = ("points", "events", "resumes", "callbacks", "instants",
                 "peak_instants", "peak_queue_depth", "elided_bytes",
                 "max_link_util", "bg_flows")
MATCHER_MEMBERS = ("posted_matches", "delivered_matches", "match_scanned",
                   "peak_posted_queue", "peak_unexpected_queue")
CHECK_MEMBERS = ("verified_invocations", "snapshot_bytes", "compared_bytes",
                 "folded_bytes", "copied_bytes")


def latest_baselines(path):
    baseline = {}
    for entry in as_array(load(path)):
        baseline[key(entry)] = entry  # later entries win: latest is baseline
    return baseline


def cmd_exact(args):
    baseline = latest_baselines(args.trajectory)
    failed = 0
    for path in args.snapshots:
        new = load(path)
        k = key(new)
        old = baseline_for(baseline, k)
        tag = label(k)
        if old is None:
            print(f"[perf-exact] {tag}: no checked-in baseline ({path})")
            failed += 1
            continue
        members = set(EXACT_MEMBERS) | {
            m for m in set(old) | set(new) if m.startswith("fabric_")}
        members |= {m for m in MATCHER_MEMBERS + CHECK_MEMBERS
                    if m in old and m in new}
        diffs = [m for m in sorted(members)
                 if (m in old or m in new) and old.get(m) != new.get(m)]
        for m in diffs:
            print(f"[perf-exact] {tag}: {m} {old.get(m, '-')} -> "
                  f"{new.get(m, '-')}")
        print(f"[perf-exact] {tag}: "
              f"{'DIFFERS' if diffs else 'identical'} ({path})")
        failed += bool(diffs)
    return 1 if failed else 0


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

    e = sub.add_parser("exact", help="gate on the deterministic members")
    e.add_argument("trajectory")
    e.add_argument("snapshots", nargs="+")
    e.set_defaults(fn=cmd_exact)

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
