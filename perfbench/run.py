"""Layered benchmark for sloccgeo.

    python3 perfbench/run.py --workload exact-curves --seed 1 --seconds 20 --trace 0

Runs one seeded workload against the ``sloccgeo`` sources of the checkout
it lives in (``<checkout>/src``).  Workloads, all closed-loop with one
client in one single-threaded process:

* ``exact-curves``: ``classify`` / ``slocc_compare`` / hyperdeterminants on
  smooth (3,3) and (4,2) states; exact ``Fraction`` work, no F_p.
* ``prime-sweeps``: ``smoothness_scan`` and ``classify`` on singular and
  (5,2) states; point enumeration and Jacobian ranks mod p.
* ``graded-algebra``: Hilbert profiles, roundtrips and section products;
  relation kernels and wide ranks mod p.
* ``cli-cold``: ``python -m sloccgeo.cli`` as one subprocess per operation,
  so interpreter start, import and calibration are paid every time.

Each run does a fixed amount of work: ``--seconds`` sets how many blocks
of seeded inputs are built (``workloads.BLOCK_SECONDS``), and every
operation runs once, so the mix and the sample count do not depend on the
speed of the code under test.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass.  The
line before it is a detail record: environment, seed, output digest, tail
percentile and sample count, and every failing operation.  An operation
fails when the program signals that it missed its target (a raised
``SloccGeoError``, or a Hilbert profile that reports no match); ``correct``
turns false when an output contradicts its check without such a signal.

Timings are reported at the reference host speed.  The host is a VM on a
shared machine whose speed drifts by tens of percent within seconds, so
each operation's wall time is divided by the host-speed factor measured
around it (``hostspeed.py``: a fixed pure-Python kernel timed between
operations), and each set-up by the kernel timed just before it (and
after it, when no timed pass follows).  The whole run is pinned to one CPU, so the kernel times the CPU
the operations run on.  The detail line keeps the raw wall-clock figures
and the median factor beside the adjusted ones.
"""

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-curves", "prime-sweeps", "graded-algebra", "cli-cold")
SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
SETUP_PROBES = 9           # kernel samples before and after each set-up
TIME_LIMIT_S = 170.0       # whole run, so it ends inside 180 s
TAIL_BEYOND = 10           # samples that must lie beyond the tail percentile


class WorkerError(Exception):
    pass


def read_steal():
    """Steal ticks and total ticks of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def start_worker(args, deadline, setup_only=False):
    """Run a worker to its end; returns (its stdout after READY, seconds
    from its start to READY at the reference host speed, raw seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    probe = hostspeed.Probe()
    probe.sample(SETUP_PROBES)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            start_new_session=True)

    def kill_group():   # the worker and any CLI subprocess it is waiting on
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill_group)
    killer.start()
    try:
        ready = proc.stdout.readline()
        end = time.perf_counter()
        if setup_only:   # sampling beside a timed pass would slow it
            proc.wait()
            probe.sample(SETUP_PROBES)
        body = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} during {args.workload}")
    setup = end - start
    return body, setup / probe.median_factor(), setup


def tail(latencies_ms):
    """The highest percentile that still has TAIL_BEYOND samples above it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sloccgeo", "__init__.py")):
        print(f"perfbench: no sloccgeo sources under {ROOT}/src", file=sys.stderr)
        return 2

    # A terminated run still runs start_worker's clean-up, which kills the
    # worker's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, inherited by the worker and its CLI
    # subprocesses: the host-speed kernel then times the CPU they run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    steal0 = read_steal()
    setups, raw_setups = [], []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                _, setup, raw_setup = start_worker(args, deadline, setup_only=True)
                setups.append(setup)
                raw_setups.append(raw_setup)
        body, setup, raw_setup = start_worker(args, deadline)
        setups.append(setup)
        raw_setups.append(raw_setup)
        raw = json.loads(body.decode("utf-8").strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal1 = read_steal()

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
    }
    if steal0 and steal1:
        ticks = steal1[0] - steal0[0]
        env["steal_ticks"] = ticks
        env["steal_share"] = ticks / max(steal1[1] - steal0[1], 1)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "digest": raw["digest"],
        "ops_per_pass": raw["ops_per_pass"], "failing": raw["failing"],
    }
    if args.trace:
        layers = dict(raw["layers"])
        ep = "geometry.enumerate_points."
        layers[ep + "hit_ratio"] = layers.pop(ep + "hits", 0) / max(layers.get(ep + "prefixes", 0), 1)
        sc = "geometry.smoothness_scan."
        layers[sc + "use_ratio"] = layers.get(sc + "primes_used", 0) / max(
            layers.get(sc + "primes_tried", 0), 1)
        spec = load_spec()
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        detail.update(untraced_wall_s=raw["untraced_wall_s"],
                      traced_wall_s=raw["traced_wall_s"], spans=raw["spans"])
    else:
        wall_ms = [x * 1000.0 for x in raw["latencies_s"]]
        lat_ms = [x / f for x, f in zip(wall_ms, raw["factors"])]
        tail_ms, pct, n = tail(lat_ms)
        detail.update(
            setup_samples_s=setups, tail_percentile=pct, samples=n,
            host_factor_median=statistics.median(raw["factors"]),
            raw={"setup_s": statistics.median(raw_setups),
                 "throughput_ops_s": 1000.0 * n / sum(wall_ms),
                 "latency_p50_ms": statistics.median(wall_ms),
                 "latency_tail_ms": tail(wall_ms)[0]},
        )
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_ops_s": {"value": 1000.0 * n / sum(lat_ms), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "ok_share": {"value": 1.0 - raw["failed"] / raw["attempted"], "unit": "ratio"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "metrics": metrics,
    }))
    return 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
