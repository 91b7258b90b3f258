"""Benchmark of the torpers command line, end to end and layer by layer.

    python3 bench/run.py --workload rips --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout (it changes there itself) and imports the
package from `src/`.  Each workload is a fixed list of `torpers` CLI calls
made in this one process through `torpers.cli.main(argv)`, one call at a
time, with stdout captured.  A pass is one run through the list; passes
repeat until `--seconds` is used up, and every pass's outputs are checked.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics; with `--trace 1` half the time runs untraced and half
traced, and the metrics are the per-layer ones.  A fuller report (the
environment, input sizes, calls, stdout sha256 per call, every pass) goes to
`bench/out/<workload>-seed<seed>-trace<0|1>.json`, and a traced run writes its
spans to `bench/out/<workload>-spans.npz` (one per workload: a traced pass
makes up to a million spans).  See bench/README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("bench", "out")

SETUPS = 15  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # passes of an untraced run, even when they outlast --seconds
MIN_TRACE_PASSES = 2  # passes of each half of a traced run
# Subcommands whose time counts toward xi_s and hyper_s.
XI_COMMANDS = ("xi", "resolve")
HYPER_COMMANDS = ("hypertor", "e1", "d2", "recover")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_torpers():
    """A fresh import of the package: drop any loaded copy, import the CLI
    (which imports every layer) and return the `torpers.cli` module."""
    for name in [m for m in sys.modules if m == "torpers" or m.startswith("torpers.")]:
        del sys.modules[name]
    return importlib.import_module("torpers.cli")


def invoke(cli, argv):
    """One CLI call in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash fails this call, not the benchmark
            traceback.print_exc()
            rc = "uncaught exception"
    return rc, out.getvalue(), err.getvalue()


def run_passes(clock, cli, plan, workload, seconds, min_passes, first_id=0, tracer=None):
    """Timed passes until `seconds` would be exceeded; each one checked."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p["elapsed_s"] for p in passes)
        <= deadline
    ):
        pid = first_id + len(passes)
        if tracer is not None:
            tracer.current_pass = pid
        outputs, wall_s, call_s = [], [], []
        gc.collect()
        clock.mark()
        t0 = time.perf_counter()
        for k, call in enumerate(plan.calls):
            if tracer is not None:
                tracer.current_call = k
            output, wall, norm = clock.time(invoke, cli, call.argv)
            outputs.append(output)
            wall_s.append(wall)
            call_s.append(norm)
        elapsed_s = time.perf_counter() - t0
        problems = workload.check(plan, [(rc, out) for rc, out, _ in outputs])
        digests = [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in outputs]
        if passes:
            for k, digest in enumerate(digests):
                if digest != passes[0]["sha256"][k]:
                    problems[k].append("stdout differs from the first pass")
        for k, (rc, _, err) in enumerate(outputs):
            if rc != 0:
                problems[k].append("stderr: " + err.strip()[-500:])
        passes.append(
            {
                "pass": pid,
                "traced": tracer is not None,
                "run_s": sum(call_s),
                "wall_s": sum(wall_s),
                "elapsed_s": elapsed_s,
                "xi_s": _sum_of(plan, call_s, XI_COMMANDS),
                "hyper_s": _sum_of(plan, call_s, HYPER_COMMANDS),
                "call_s": call_s,
                "call_wall_s": wall_s,
                "sha256": digests,
                "problems": {k: p for k, p in enumerate(problems) if p},
            }
        )
    return passes


def _sum_of(plan, call_s, commands):
    return sum(t for call, t in zip(plan.calls, call_s) if call.command in commands)


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np):
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "torpers", "cli.py")):
        sys.stderr.write("bench: no src/torpers here; run from a torpers checkout\n")
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.environ.pop("TORPERS_WORKERS", None)  # keep every call on one thread

    import numpy as np

    import workloads
    from clock import REF_SECONDS, Clock

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(
            "bench: unknown workload %r (have %s)\n"
            % (args.workload, ", ".join(workloads.WORKLOADS))
        )
        return 1
    outdir = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))

    def setup():
        return import_torpers(), workload.prepare(args.seed, outdir)

    clock = Clock()
    setup_s, setup_wall_s = [], []
    for _ in range(SETUPS):
        gc.collect()
        clock.mark()
        (cli, plan), wall, norm = clock.time(setup)
        setup_s.append(norm)
        setup_wall_s.append(wall)
    workload.reference(plan, lambda argv: invoke(cli, argv)[:2])

    if args.trace:
        import tracing

        half = args.seconds / 2
        plain = run_passes(clock, cli, plan, workload, half, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(
                clock, cli, plan, workload, half, MIN_TRACE_PASSES, len(plain), tracer
            )
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        passes = run_passes(clock, cli, plan, workload, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(plan.calls) * len(passes)
    failed = sum(len(p["problems"]) for p in passes)
    if args.trace:
        rows = list(tracer.per_pass().values())
        # counts repeat exactly from pass to pass; median_low keeps them whole
        layer = {
            key: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [row[key] for row in rows]
            )
            for key, v in rows[0].items()
        }
        layer["trace.overhead_frac"] = (
            _median(traced, "run_s") / _median(plain, "run_s") - 1.0
        )
        layer["xi_s"] = _median(plain, "xi_s")
        layer["hyper_s"] = _median(plain, "hyper_s")
        layer["failed_frac"] = failed / attempted
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": _median(passes, "run_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    report = {
        "env": environment(args, np),
        "why": workload.why,
        "sizes": plan.sizes,
        "calls": [c.argv for c in plan.calls],
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "probe_s": clock.probes,
        "ref_seconds": REF_SECONDS,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    with open("%s-trace%d.json" % (stem, args.trace), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.save(os.path.join(OUT, args.workload + "-spans.npz"), seed=args.seed)

    for p in passes:
        for k, probs in p["problems"].items():
            print("FAILED pass %d call %s: %s" % (p["pass"], plan.calls[k].argv, probs))
    print(
        "%s seed %d: %d passes, %d calls, %d failed, sizes %s"
        % (args.workload, args.seed, len(passes), attempted, failed,
           json.dumps(plan.sizes, sort_keys=True))
    )
    for name, m in metrics.items():
        print("  %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
