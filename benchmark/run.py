#!/usr/bin/env python3
"""Build and run dpmlbench, the repository benchmark (python3 stdlib only).

One run of one workload (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

builds benchmark/ into .bench_build/ if needed, runs dpmlbench as one
process and prints, as the last line of stdout, one JSON object with
correct / attempted / failed and the metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1 (the
Chrome trace then goes to .bench_build/trace-W-S.json).

    python3 benchmark/run.py set [--repeats N] [--seed S] [--seconds T]
                                 [--trace 0|1] [--out FILE]

runs every workload as its own process N times, interleaving workloads
across repeats, prints each metric's median and quartiles, and writes the
raw values to FILE. It exits non-zero if any point failed or a simulated
metric differed between repeats.

    python3 benchmark/run.py compare PARENT.json CHANGE.json

gives a verdict per (metric, workload): improved, unchanged, regressed or
unresolved, with the bounds of BENCHMARK.json.

    python3 benchmark/run.py smoke --bin PATH

runs every workload with dpmlbench --smoke and checks the output shape and
that every metric BENCHMARK.json names is emitted (the ctest entry).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "dpmlbench")

# Metrics that are pure functions of the simulated inputs: they must repeat
# exactly for one seed, and compare exactly between commits.
SIMULATED = {
    "sim_us_geomean",
    "sim.events", "sim.peak_queue_depth", "sim.callback_pool_hit_rate",
    "sim.payload_pool_hit_rate", "sim.elided_mb",
    "simmpi.net_msgs_per_op", "simmpi.net_kb_per_op", "simmpi.shm_kb_per_op",
    "simmpi.reduce_kb_per_op", "simmpi.rndv_per_op",
    "coll.dpml_speedup", "coll.dpml_l16_vs_l1_512k",
    "coll.pipelined_vs_plain_1m",
    "model.eq7_err_pct_l1", "model.eq7_err_pct_l16",
    "fabric.flows", "fabric.bg_flows", "fabric.events_per_flow",
    "fabric.max_link_util",
    "tenant.slowdown_geomean", "tenant.shared_links",
    "tenant.hot_link_bg_share", "adapt.replans", "adapt.max_level",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure (cheap when nothing changed), then let the build tool
    bring dpmlbench up to date."""
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))

    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "--target", "dpmlbench", "-j", jobs])


def run_bench(binary, workload, seed, seconds, trace_path=None, smoke=False):
    """One dpmlbench process; returns its JSON result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if smoke:
        cmd.append("--smoke")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd), p.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % " ".join(cmd))


def select(result, metrics):
    """The result line: exactly the named metrics, in order."""
    out = {}
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("dpmlbench did not emit metric %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": out}


def one_run(spec, workload, seed, seconds, trace):
    trace_path = None
    if trace:
        trace_path = os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))
    result = run_bench(BIN, workload, seed, seconds, trace_path)
    return select(result, spec["per_layer" if trace else "end_to_end"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_set(spec, args):
    build()
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for rep in range(args.repeats):
        # Rotate the order so no workload always runs first or last.
        order = names[rep % len(names):] + names[:rep % len(names)]
        for w in order:
            r = one_run(spec, w, args.seed, args.seconds, args.trace)
            runs[w].append(r)
            print("repeat %d %s done" % (rep + 1, w), file=sys.stderr)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    values, points = {}, {}
    for w in names:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        points[w] = {"attempted": attempted, "failed": failed}
        print("%-18s fail_rate %.6g (%d of %d points)"
              % (w, failed / attempted, failed, attempted))
        if failed or not all(r["correct"] for r in runs[w]):
            ok = False
        values[w] = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            values[w][m["name"]] = vals
            q1, med, q3 = quartiles(vals)
            print("%-18s %-28s %14.6g %-8s q1 %.6g q3 %.6g n %d"
                  % (w, m["name"], med, m["unit"], q1, q3, len(vals)))
            if m["name"] in SIMULATED and len(set(vals)) > 1:
                ok = False
                print("  %s differs between repeats: %s" % (m["name"], vals))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "repeats": args.repeats,
                       "points": points, "values": values},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def verdict(parent, change, better, bound, simulated):
    """The choosing-metrics rule for one (metric, workload).

    improved:   the change wins at least 9 of 10 pairs and its median beats
                the parent's by more than the parent's quartile spread;
    unresolved: the parent's spread is wider than the bound and not every
                change run beats every parent run;
    regressed:  the median is worse than the parent's by more than the bound;
    unchanged:  otherwise. Simulated metrics must match exactly.
    """
    sign = 1.0 if better == "higher" else -1.0  # sign * (c - p) > 0: better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if simulated:
        if gain == 0:
            return "unchanged"
        return "improved" if gain > 0 else "regressed"
    spread = p_q3 - p_q1
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if gain > spread and wins >= 0.9 * pairs:
        return "improved"
    if spread > bound * abs(p_med):
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "improved"
        return "unresolved"
    return "regressed" if -gain > bound * abs(p_med) else "unchanged"


def cmd_compare(spec, args):
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    worst = 0
    print("%-18s %-22s %14s %14s %8s  %s"
          % ("workload", "metric", "parent", "change", "delta", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        pf = parent["points"][w]["failed"]
        cf = change["points"][w]["failed"]
        print("%-18s %-22s %14d %14d %8s  %s" % (
            w, "failed", pf, cf, "",
            "regressed" if cf > pf else "unchanged"))
        if cf > pf:
            worst = 1
        for m in spec["end_to_end"]:
            p = parent["values"][w][m["name"]]
            c = change["values"][w][m["name"]]
            v = verdict(p, c, m["better"], m["bound"], m["name"] in SIMULATED)
            pm, cm = statistics.median(p), statistics.median(c)
            delta = (cm - pm) / pm * 100.0 if pm else 0.0
            print("%-18s %-22s %14.6g %14.6g %+7.2f%%  %s"
                  % (w, m["name"], pm, cm, delta, v))
            if v == "regressed":
                worst = 1
    return worst


def cmd_smoke(spec, args):
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        trace = os.path.abspath("smoke-trace-%s.json" % w)
        r = run_bench(args.bin, w, 1, 0, trace, smoke=True)
        for key in ("correct", "attempted", "failed", "metrics"):
            if key not in r:
                fail("%s: result lacks %s" % (w, key))
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = r["metrics"].get(m["name"])
            if (got is None or got.get("unit") != m["unit"]
                    or not isinstance(got.get("value"), (int, float))):
                ok = False
                print("%s: metric %s missing or malformed: %s"
                      % (w, m["name"], got))
        with open(trace) as f:
            if not json.load(f)["traceEvents"]:
                ok = False
                print("%s: empty trace" % w)
        if not r["correct"] or r["failed"] or r["attempted"] < 1:
            ok = False
            print("%s: %d of %d points failed" % (w, r["failed"], r["attempted"]))
        print("%s: %d metrics, %d points" % (w, len(r["metrics"]), r["attempted"]))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    spec = load_spec()
    if argv and argv[0] in ("set", "compare", "smoke"):
        ap = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "set":
            ap.add_argument("--repeats", type=int, default=5)
            ap.add_argument("--seed", type=int, default=1)
            ap.add_argument("--seconds", type=float,
                            default=spec["run_seconds"])
            ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
            ap.add_argument("--out")
            return cmd_set(spec, ap.parse_args(argv[1:]))
        if argv[0] == "compare":
            ap.add_argument("parent")
            ap.add_argument("change")
            return cmd_compare(spec, ap.parse_args(argv[1:]))
        ap.add_argument("--bin", required=True)
        return cmd_smoke(spec, ap.parse_args(argv[1:]))

    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    build()
    result = one_run(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
