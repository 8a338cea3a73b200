"""One benchmark process: set up a workload, then run it closed-loop.

Started by ``run.py``.  Prints ``READY`` once set-up ends (imports, S/T
calibration, input generation, warm-up), then, unless ``--setup-only``, one
JSON line with the raw measurements.  The parent turns those into metrics.

The operation list is sized from ``--seconds`` (see ``workloads.build``).
Untraced (``--trace 0``): one timed pass over the list, with the
``hostspeed`` kernel timed between operations, so the parent can report
every operation at the reference host speed.  Traced
(``--trace 1``): one untraced pass, then one traced pass over the same
list, so work counts repeat exactly for a seed and the difference of the
two is the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBES = 5


def import_checkout():
    """Import ``sloccgeo`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import sloccgeo

    path = os.path.realpath(sloccgeo.__file__)
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported sloccgeo from {path}, not from {SRC}")
    return sloccgeo


def execute(op, errors):
    try:
        return "ok", op.call()
    except errors as exc:
        return "raised", exc
    except Exception as exc:  # a crash is judged incorrect, not fatal
        return "crashed", exc


def run_pass(ops, errors, summarize, probe=None):
    """Each operation once, closed-loop; returns outcomes, summaries, per-op
    latencies, per-op host-speed factors (with a ``hostspeed.Probe``, else
    None) and the wall seconds spent in operations."""
    outcomes, latencies, spans = [], [], []
    if probe is not None:
        probe.warm_up()
    for op in ops:
        t0 = time.perf_counter()
        outcomes.append(execute(op, errors))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        if probe is not None:
            probe.after(t1 - t0)
    factors = None if probe is None else [probe.factor(a, b) for a, b in spans]
    summaries = [summary_of(o, summarize) for o in outcomes]
    return outcomes, summaries, latencies, factors, sum(latencies)


def summary_of(outcome, summarize):
    kind, value = outcome
    if kind == "ok":
        return summarize(value)
    return {kind: type(value).__name__}


def fresh_ms(code, env):
    """Median wall milliseconds of ``python -c code`` in fresh processes, or
    the median of what the snippet prints when it times itself."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, timeout=60, check=True).stdout
        wall = (time.perf_counter() - start) * 1000.0
        samples.append(float(out) if out.strip() else wall)
    return statistics.median(samples)


def fresh_process_probes():
    env = dict(os.environ, PYTHONPATH=SRC)
    calibration = (
        "import time, sloccgeo as sg\n"
        "f = sg.TernaryCubic.weierstrass(1, 0)\n"
        "t = time.perf_counter(); sg.aronhold_invariants(f); first = time.perf_counter() - t\n"
        "t = time.perf_counter(); sg.aronhold_invariants(f); again = time.perf_counter() - t\n"
        "print((first - again) * 1000)\n"
    )
    importing = (
        "import time\n"
        "t = time.perf_counter(); import sloccgeo\n"
        "print((time.perf_counter() - t) * 1000)\n"
    )
    return {
        "invariants.calibration_ms": fresh_ms(calibration, env),
        "cli.import_ms": fresh_ms(importing, env),
        "cli.interpreter_ms": fresh_ms("pass", env),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    sg = import_checkout()
    sg.aronhold_invariants(sg.TernaryCubic.weierstrass(1, 0))  # S/T calibration
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir)
    rng = random.Random(f"{args.workload}/{args.seed}")
    wl = workloads.build(args.workload, sg, rng, args.seconds, ROOT, run_dir)
    try:
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, wl, sg, workloads.summarize)
    finally:
        wl.close()
        os.rmdir(run_dir)
        with contextlib.suppress(OSError):   # other runs may share the parent
            os.rmdir(os.path.dirname(run_dir))
    print(json.dumps(result), flush=True)
    return 0


def measure(args, wl, sg, summarize):
    errors = sg.SloccGeoError
    ops = wl.ops
    out = {"ops_per_pass": len(ops)}
    if args.trace:
        base, base_summaries, _, _, base_wall = run_pass(ops, errors, summarize)
        start = time.perf_counter()
        wl.in_process_work()
        base_wall += time.perf_counter() - start

        import tracer

        tr = tracer.Tracer()
        tr.install()
        try:
            first, summaries, _, _, wall = run_pass(ops, errors, summarize)
            start = time.perf_counter()
            wl.in_process_work()
            wall += time.perf_counter() - start
        finally:
            tr.uninstall()
        layers = tr.layer_metrics()
        layers.update(fresh_process_probes())
        layers["cli.report_bytes"] = sum(
            len(v.stdout) for kind, v in first if kind == "ok" and hasattr(v, "stdout")
        )
        layers["tracing.overhead_share"] = (wall - base_wall) / base_wall
        out["layers"] = layers
        out["untraced_wall_s"], out["traced_wall_s"] = base_wall, wall
        unstable = {k for k, (a, b) in enumerate(zip(base_summaries, summaries)) if a != b}
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl.gz")
        tr.write_spans(spans_path)
        out["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        import hostspeed

        first, summaries, latencies, factors, _ = run_pass(
            ops, errors, summarize, hostspeed.Probe())
        unstable = ()
        out["latencies_s"] = latencies
        out["factors"] = factors

    verdicts = wl.judge(first)
    for k in unstable:
        verdicts[k] = ("incorrect", "repeated call gave a different result")
    who = "RUSAGE_CHILDREN" if args.workload == "cli-cold" else "RUSAGE_SELF"
    out["peak_rss_kb"] = resource.getrusage(getattr(resource, who)).ru_maxrss
    out["attempted"] = len(ops)
    out["failed"] = sum(1 for v, _ in verdicts if v != "ok")
    out["failing"] = [
        {"op": ops[k].label, "verdict": v, "detail": d}
        for k, (v, d) in enumerate(verdicts) if v != "ok"
    ]
    out["correct"] = all(v != "incorrect" for v, _ in verdicts)
    canonical = json.dumps([[op.label, s] for op, s in zip(ops, summaries)], sort_keys=True)
    out["digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return out


if __name__ == "__main__":
    sys.exit(main())
