"""Benchmark of tpflag: four workloads, each from a single process as a
closed loop with one caller.

    python3 bench/run.py --workload {campaign,classify,membership,cli}
                         --seed N --seconds T --trace {0,1}

Run from any directory; the package is imported from the ``src`` tree
next to this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are calibrated for the speed of the shared machine (see calibrate.py);
the wall-clock values and the measured slowdown are printed and
recorded beside them.  The run and all its processes share one CPU.

* ``ops_per_s``: items per second of timed work (the sum of item times).
* ``latency_p50_ms``, ``latency_p90_ms``: per item; a run does at least
  100 items, so at least ten lie beyond the 90th percentile.
* ``ok_frac``: 1 - fail_frac.  An item fails if it raises or the
  benchmark's check rejects its output.  ``fail_frac`` itself is 0 on a
  healthy build, so it is printed in the table and carried by the
  ``attempted``/``failed`` fields rather than gated as a metric.
* ``setup_s``: time to import tpflag and finish the workload's lazy
  first-call work in a fresh process; the median of SETUP_SAMPLES
  processes, spread before and after the timed loop.
* ``peak_rss_mb``: peak resident memory of the process doing the work;
  for ``cli`` the largest ``python -m tpflag`` child.

``--trace 1`` runs a fixed number of items twice in fresh processes,
untraced and then traced, and prints the per-layer metrics of the traced
run (totals over its set-up and items, in wall seconds), the start-up
split of a CLI call, and the tracing overhead (from calibrated times).
The spans go to ``bench/_results/spans-<workload>-<seed>.jsonl``.

``links.json`` predicts which end-to-end metric each layer metric should
move, on which workload, and where no change is expected.

Both modes print a table and the run's provenance, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a copy of the record is written to ``bench/_results``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import source
import tracer

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "_results"
WORKLOADS = ("campaign", "classify", "membership", "cli")
SETUP_SAMPLES = 9
STARTUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}


def worker(args, mode, workdir, timeout, **extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--mode", mode]
    for key, value in extra.items():
        cmd += ["--" + key, str(value)]
    proc = subprocess.run(cmd, env=source.child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, workdir):
    # set-up samples before and after the loop see the machine in more states
    half = (SETUP_SAMPLES - 1) // 2
    setups = [worker(args, "setup", workdir, 60) for _ in range(half)]
    run = worker(args, "run", workdir, args.seconds + 120, seconds=args.seconds)
    setups += [run] + [worker(args, "setup", workdir, 60) for _ in range(half)]
    metrics = {**timings(run["latencies_s"]),
               "ok_frac": 1.0 - run["failed"] / run["items"],
               "setup_s": statistics.median(s["setup_s"] for s in setups),
               "peak_rss_mb": run["peak_rss_mb"]}
    wall = {**timings(run["wall_latencies_s"]),
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups)}
    info = {"items": run["items"], "fail_frac": run["failed"] / run["items"],
            "slowdown": run["slowdown"], "wall_timings": wall,
            "setup_samples_s": [s["setup_s"] for s in setups]}
    return metrics, END_TO_END_UNITS, run["items"], run["failed"], run["reasons"], info


def timings(lat):
    return {"ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000.0,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0}


def startup_s(code):
    """Median wall time of a fresh interpreter running ``code``."""
    return statistics.median(calibrate.startup_time(code) for _ in range(STARTUP_SAMPLES))


def traced(args, workdir):
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"
    plain = worker(args, "fixed", workdir, 170)
    traced_run = worker(args, "traced", workdir, 170, spans=spans)
    metrics = dict(traced_run["layers"])
    interpreter = startup_s("pass")
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = startup_s("import tpflag.cli") - interpreter
    untraced_ops = plain["items"] / sum(plain["latencies_s"])
    traced_ops = traced_run["items"] / sum(traced_run["latencies_s"])
    metrics["trace.untraced_ops_per_s"] = untraced_ops
    metrics["trace.traced_ops_per_s"] = traced_ops
    metrics["trace.overhead_frac"] = 1.0 - traced_ops / untraced_ops
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    metrics = {name: metrics[name] for name in units}
    items = plain["items"] + traced_run["items"]
    failed = plain["failed"] + traced_run["failed"]
    info = {"items": {"untraced": plain["items"], "traced": traced_run["items"]},
            "slowdown": {"untraced": plain["slowdown"], "traced": traced_run["slowdown"]},
            "spans": str(spans.relative_to(source.ROOT))}
    return metrics, units, items, failed, plain["reasons"] + traced_run["reasons"], info


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = source.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source.have_sources():
        sys.stderr.write(f"error: no tpflag sources under {source.SRC}\n")
        return 2

    prov = provenance(args)
    # One CPU for this process and every process it starts (see calibrate.py).
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # a discarded set-up compiles the byte code, so no sample pays for it
        worker(args, "setup", workdir, 120)
        measure = traced if args.trace else end_to_end
        metrics, units, attempted, failed, reasons, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"provenance": prov, **info, "failure_reasons": reasons,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("# provenance " + json.dumps(record["provenance"]))
    print(f"# {args.workload}: attempted {attempted}, failed {failed}")
    for reason in reasons:
        print("# failure " + reason)
    if not args.trace:
        print(f"# machine slowdown {info['slowdown']:.4g}; wall-clock values: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["wall_timings"].items()))
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    if not args.trace:
        rows.append(("fail_frac", failed / attempted, "frac"))
    for name, value, unit in rows:
        print(f"# {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
