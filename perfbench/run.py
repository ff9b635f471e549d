"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 30

Workloads (``perfbench/catalogue.py`` lists every metric):

* ``grid-cold``   -- fresh runners simulate a seeded default-config grid
  over ``nproc`` workers (the figure-regeneration path);
* ``grid-warm``   -- fresh runners re-read a filled private cache of the
  21 x 5 small-config grid (the cached re-render);
* ``service-mix`` -- closed-loop clients drive a real ``serve`` daemon
  with fresh and repeated jobs.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around every layer call, writes them as a
Chrome-trace file, and reports the per-layer metrics, a self-time table
and the tracing overhead.  Every simulated result is checked; a mismatch
makes the command exit 1.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full record,
with quartiles, sample counts, the host block and the flat
``{name, unit, value}`` lists, goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-cold", "grid-warm", "service-mix")
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import subprocess

    codes = [subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", w,
         "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
         "--trace", str(args.trace)]).returncode for w in WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some simulated results depend on the interpreter's string-hash
        # order, so every process of a run (and of every run) uses one
        # hash seed; re-exec under it (workers and the daemon inherit it).
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if args.workload == "all":
        return run_all(args)
    missing = [p for p in (os.path.join(ROOT, "src", "repro"),
                           os.path.join(ROOT, "tests", "golden",
                                        "simstats_bfs_nw.json"))
               if not os.path.exists(p)]
    if missing:
        print(f"perfbench: the program is not here: missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import common
    from perfbench.catalogue import COMMON, END_TO_END, PER_LAYER

    errors = common.hygiene_errors()
    if errors:
        print("perfbench: refusing to run: " + "; ".join(errors),
              file=sys.stderr)
        return 2
    from perfbench import gate, grid, probe, service
    from repro.obs.perfetto import validate_chrome_trace

    jobs = len(os.sched_getaffinity(0))
    trace = bool(args.trace)
    if args.workload == "grid-cold":
        res = grid.grid_cold(args.seed, args.seconds, jobs,
                             gate.load_golden(), trace)
    elif args.workload == "grid-warm":
        res = grid.grid_warm(args.seed, args.seconds, jobs, trace)
    else:
        res = service.service_mix(args.seed, args.seconds, jobs, trace)

    g = res["gate"]
    # one set-up sample = a new interpreter's start and imports plus one
    # repetition of the workload's preparation
    setup = [common.fresh_import_seconds("perfbench.grid", "perfbench.service")
             + prep for prep in res["setup_samples"]]
    rates = res["rate_samples"]
    m = {
        "setup_s": common.metric(common.median(setup), "s", len(setup),
                                 setup),
        "runs_per_s": common.metric(res["runs_per_s"], "runs/s", len(rates),
                                    rates),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB", 1),
        "failed_frac": common.metric(g.failed / max(1, g.attempted),
                                     "fraction", g.attempted),
    }
    if "sim_kips" in res:
        m["sim_kips"] = common.metric(res["sim_kips"], "kinst/s", len(rates))
    if args.workload == "grid-warm":
        m.update(common.latency_metrics("latency", res["passes"]))
    if args.workload == "service-mix":
        m.update(common.latency_metrics("latency", res["latency"]))
        m.update(common.latency_metrics("hit_latency", res["hit_latency"]))

    stem = os.path.join(common.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "schema": 1, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "jobs": jobs,
        "host": common.host_record(), "correct": g.correct,
        "attempted": g.attempted, "failed": g.failed, "errors": g.errors,
        "metrics": m,
        "flat": common.flat_records(
            args.workload, m, {k: v.better for k, v in END_TO_END.items()}),
        "details": {k: v for k, v in res.items()
                    if k not in ("gate", "layers", "spans")},
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} jobs={jobs}")
    host = record["host"]
    print(f"  host: {host['cpu_model']}, nproc {host['nproc']}, python "
          f"{host['python']}, git {host['git_sha'][:12]} dirty="
          f"{host['git_dirty']}; model {host['model']}")
    for name, spec in END_TO_END.items():
        if spec.workloads != "all" and args.workload not in spec.workloads:
            continue
        x = m.get(name)
        if x is None:
            print(f"  {name:<20} {'not reported':>14} "
                  f"{spec.unit:<9} too few samples for ten "
                  "beyond the percentile")
            continue
        quart = (f"  median {x['median']:.6g} q1 {x['q1']:.6g} "
                 f"q3 {x['q3']:.6g}" if "median" in x else "")
        print(f"  {name:<20} {x['value']:>14.6g} {x['unit']:<9} "
              f"n={x['n']}{quart}")
    if args.workload == "service-mix":
        print(f"  (repeat jobs: {res['hit_runs']} runs, "
              f"{res['hit_runs_per_s']:.6g} runs/s, not in runs_per_s)")
    if trace:
        record["from_probe"] = probe.fill(args.workload, res["layers"],
                                          args.seed, jobs, g)
        spans = res["spans"]
        chrome = spans.chrome_trace()
        problems = validate_chrome_trace(chrome)
        if problems:
            g.op([f"chrome trace invalid: {problems[:3]}"])
        trace_path = common.write_json(stem + ".trace.json", chrome)
        table = spans.self_times()
        record.update(layers=res["layers"], self_time=table,
                      correct=g.correct, failed=g.failed,
                      attempted=g.attempted)
        print(common.render_self_times(table))
        print(f"  tracing overhead {res['layers']['trace.overhead_frac']:+.2%}"
              f"; spans written to {os.path.relpath(trace_path, ROOT)}")
        print(f"  {len(record['from_probe'])} per-layer metrics are off this "
              "workload's path and come from the layer probe: "
              + ", ".join(record["from_probe"]))
    for err in g.errors:
        print(f"  FAIL {err}")
    print(f"  correctness: {'PASS' if g.correct else 'FAIL'} "
          f"({g.attempted} operations checked, {g.failed} failed)")
    path = common.write_json(stem + ".json", record)
    print(f"  full record: {os.path.relpath(path, ROOT)}")

    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": spec.unit}
                   for name, spec in PER_LAYER.items()}
    else:
        metrics = {name: {"value": m[name]["value"], "unit": m[name]["unit"]}
                   for name in COMMON}
    print(json.dumps({"correct": g.correct, "attempted": g.attempted,
                      "failed": g.failed, "metrics": metrics}))
    return 0 if g.correct else 1


if __name__ == "__main__":
    sys.exit(main())
