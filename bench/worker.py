"""One fresh process of a benchmark run; started by run.py.

    python bench/worker.py --workload W --seed S --workdir DIR --mode MODE
                           [--seconds T] [--items N] [--spans PATH]

Modes:

* ``setup``: import tpflag and finish the workload's set-up.
* ``run``: set up, then run checked items in a closed loop with one
  caller for T seconds, and on for at least MIN_ITEMS items.
* ``fixed``: set up, then run the first N items untraced.
* ``traced``: install the tracer, then set up and run the same N items
  traced, and write the spans to PATH.

``fixed`` and ``traced`` run cli items through ``cli.main`` in-process.
Prints one JSON object on stdout.  ``setup_s`` is measured from before
the import of tpflag to the end of the workload's set-up.  Times are
calibrated for the machine's speed (see calibrate.py); the wall times
are reported beside them.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import source

# At least ten samples beyond the 90th percentile.
MIN_ITEMS = 100
# A run stops this long after --seconds even if MIN_ITEMS is not reached.
GRACE_S = 60.0


def run_items(wl, seconds=None, items=None, tracer=None):
    """Run items 0, 1, ... of a workload: ``items`` of them, or for
    ``seconds`` (see MIN_ITEMS).  Only ``wl.run`` is timed; the times
    are calibrated (see calibrate.py) and the wall times kept beside
    them."""
    if wl.in_process:
        probe, ref = calibrate.kernel_time, calibrate.REF_KERNEL_S
    else:
        probe, ref = calibrate.startup_time, calibrate.REF_STARTUP_S
    latencies, probes, reasons = [], [], []
    start = perf_counter()
    k = 0
    while True:
        if items is not None:
            if k >= items:
                break
        else:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and k >= MIN_ITEMS) or elapsed >= seconds + GRACE_S:
                break
        item = wl.make_input(k)
        before = probe()
        region = tracer.region("item", k) if tracer else contextlib.nullcontext()
        out, reason = None, None
        with region:
            t0 = perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # a failed item is data, not a crash
                reason = f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
        probes.append((before + probe()) / 2)
        if reason is None:
            reason = wl.check(item, out)
        if reason is not None:
            reasons.append(f"item {k}: {reason}")
        k += 1
    return {"items": k, "failed": len(reasons), "reasons": reasons[:10],
            "latencies_s": [calibrate.calibrated(t, p, ref) for t, p in zip(latencies, probes)],
            "wall_latencies_s": latencies, "slowdown": statistics.median(probes) / ref}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "fixed", "traced"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--items", type=int)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    source.use_sources()
    args.workdir.mkdir(parents=True, exist_ok=True)

    t0 = perf_counter()
    import workloads
    in_process = args.mode in ("fixed", "traced")
    wl = workloads.make(args.workload, args.seed, args.workdir, in_process)
    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.region("setup"):
            wl.setup()
    else:
        wl.setup()
    setup_wall = perf_counter() - t0
    out = {"setup_s": calibrate.calibrated(setup_wall, calibrate.kernel_time()),
           "setup_wall_s": setup_wall}

    if args.mode == "run":
        out.update(run_items(wl, seconds=args.seconds))
    elif args.mode in ("fixed", "traced"):
        out.update(run_items(wl, items=args.items or wl.trace_items, tracer=tracer))
    if tracer is not None:
        out["layers"] = tracer.metrics(out["items"])
        tracer.dump(args.spans)
    out["peak_rss_mb"] = peak_rss_mb(children=not wl.in_process)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
