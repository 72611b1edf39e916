#!/usr/bin/env python3
"""adjkit benchmark: exact-verification workloads, end to end and by layer.

One run of one workload (what BENCHMARK.json's command runs)::

    python3 perfbench/run.py --workload n4-requests --seed 1 --seconds 5 --trace 0

``--trace 0`` measures in this process with tracing off and prints the
end-to-end metrics.  ``--trace 1`` runs the workload twice in fresh
processes on the pure-Python kernels, untraced and traced, and prints the
per-layer metrics of the traced run with its overhead and coverage; when
the compiled kernels import, it repeats both runs on them and prints those
figures as extra lines.  The last line of stdout is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload (see workloads.py) is a closed loop with one client that
issues a fixed, seeded list of operations.  A run repeats that list until
at least ``--seconds`` of operations were timed (at least once).  Every
result is checked exactly outside the timed section.

All workloads, interleaved, with a summary table::

    python3 perfbench/run.py --all --runs 3 --seconds 5

Times are reported at a reference host speed: each run samples a fixed
calibration loop while it measures and scales its times by the ratio (see
hostspeed.py); the lines before the JSON give the values as measured too.

``--smoke`` shrinks every workload to tiny sizes (used by the tests).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REF_LOOP_S, HostSpeed, calibration_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NAMES = ("n4-requests", "n5-sandwich", "n5-det-law", "modp-n10")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
                    "latency_p95_ms": "ms", "peak_rss_mb": "MB"}


def child_env(impl: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ADJKIT_PURE", None)
    if impl == "py":
        env["ADJKIT_PURE"] = "1"
    return env


def last_json_line(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(n: int | None) -> tuple[float, float]:
    """import adjkit (+ the first GenericContext(n)), each in a fresh process.

    Returns the median set-up time, as measured and at the reference host
    speed; each set-up is scaled by the calibration loop run right after it.
    """
    code = ("import time; t = time.perf_counter(); import adjkit"
            + (f"; adjkit.GenericContext({n})" if n else "")
            + "; print(time.perf_counter() - t)")
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(None), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip()))
        scaled.append(samples[-1] * REF_LOOP_S / calibration_loop())
    return statistics.median(samples), statistics.median(scaled)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run the workload's op list until ``seconds`` of ops were timed.

    ``wall_s`` and the latencies are at the reference host speed: each op's
    time is scaled by the calibration samples taken around it (see
    hostspeed.py), unless the workload opts out.  The ``measured_*`` entries
    are the unscaled values.
    """
    with HostSpeed() as speed:
        out = _measure(wl, seconds, tracer, speed)
    timings = out.pop("timings")
    passes = sorted({p for p, *_ in timings})
    scaled = speed.scale if wl.host_scaled else None
    for prefix, scale in (("measured_", None), ("", scaled)):
        lat = [dt if scale is None else scale(dt, i0, i1)
               for _, dt, i0, i1 in timings]
        walls = [sum(t for t, (p, *_) in zip(lat, timings) if p == q)
                 for q in passes]
        out[prefix + "wall_s"] = statistics.median(walls)
        out[prefix + "latency_p50_ms"] = statistics.median(lat) * 1e3
        out[prefix + "latency_p95_ms"] = percentile(lat, 0.95) * 1e3
    out["speed_factor"] = speed.factor
    out["calibration_s"] = speed.loop_s
    out["speed_samples"] = len(speed.samples)
    return out


def _measure(wl, seconds, tracer, speed) -> dict:
    wl.start()
    timings = []        # (pass, seconds, first sample, end sample) per op
    measured_s = covered_s = 0.0
    attempted = failed = 0
    digests: dict = {}
    run_digest = hashlib.sha256()
    for pass_no in itertools.count():
        for index, op in enumerate(wl.ops):
            args = wl.prepare(op)
            top0 = tracer.top_s if tracer is not None else 0.0
            error = result = None
            mark, spent0 = len(speed.samples), speed.spent_s
            t0 = time.perf_counter()
            try:
                result = wl.run(args)
            except Exception:           # counted as a failed op below
                error = traceback.format_exc()
            sampling_s = speed.spent_s - spent0
            dt = time.perf_counter() - t0 - sampling_s
            if tracer is not None:
                covered_s += tracer.top_s - top0 - sampling_s
            timings.append((pass_no, dt, mark, len(speed.samples)))
            measured_s += dt
            attempted += 1
            ok, digest = False, "error"
            if error is None:
                try:
                    ok, digest = wl.check(index, op, result)
                except Exception:       # a malformed result fails its check
                    error = traceback.format_exc()
            if error is not None:
                print(f"op {index} raised:\n{error}", file=sys.stderr)
            elif not ok:
                print(f"op {index} failed its check: {op!r:.200}", file=sys.stderr)
            # identical ops must give identical results, also across passes
            if digests.setdefault(wl.key(op), digest) != digest:
                print(f"op {index} is not deterministic: {op!r:.200}",
                      file=sys.stderr)
                ok = False
            failed += not ok
            if pass_no == 0:
                run_digest.update(digest.encode())
            del args, result
        if measured_s >= seconds:
            break
    return {
        "timings": timings,
        "passes": pass_no + 1,
        "ops": len(timings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "digest": run_digest.hexdigest()[:16],
        "coverage": covered_s / measured_s if measured_s else 0.0,
    }


def revision() -> str:
    """The git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "adjkit").glob("*.py")):
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_info() -> dict:
    from adjkit import kernels
    return {"impl": kernels.IMPL, "python": platform.python_version(),
            "revision": revision(), "nproc": len(os.sched_getaffinity(0))}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_timed(args) -> int:
    """--trace 0: end-to-end metrics, measured in this process."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    measured_setup_s, setup_s = measure_setup(wl.setup_n)
    info = run_info()
    res = measure(wl, args.seconds)
    res["setup_s"], res["measured_setup_s"] = setup_s, measured_setup_s
    metrics = {k: res[k] for k in END_TO_END_UNITS}
    raw = {k: res.get("measured_" + k, v) for k, v in metrics.items()}
    print(f"workload {wl.name} seed {args.seed}: {res['ops']} ops in "
          f"{res['passes']} pass(es); latency samples {res['ops']}; "
          f"setup samples {SETUP_REPEATS}")
    print(f"  host: calibration loop {res['calibration_s'] * 1e3:.4g} ms "
          f"(median of {res['speed_samples']}), speed factor "
          f"{res['speed_factor']:.4g}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {END_TO_END_UNITS[k]} (as measured {raw[k]:.6g})")
    print(f"  failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    print(f"  output digest = {res['digest']}")
    print("  info: " + json.dumps(info, sort_keys=True))
    print(result_line(res["failed"] == 0, res["attempted"], res["failed"],
                      {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}))
    return 0


def run_child(args) -> int:
    """--child plain|traced: one measurement in this (fresh) process."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    out = {"info": run_info()}
    if args.child == "plain":
        out.update(measure(wl, args.seconds))
        print(json.dumps(out))
        return 0
    from layers import Tracer
    with Tracer() as tracer:
        out.update(measure(wl, args.seconds, tracer))
    need = (wl.entry_span,) if args.smoke else wl.expected_spans
    missing = [name for name in need if not tracer.fired(name)]
    out["layers"] = tracer.layer_metrics()
    # layer seconds follow the workload's rule for its end-to-end times
    out["layer_factor"] = out["speed_factor"] if wl.host_scaled else 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{wl.name}-{args.seed}-{out['info']['impl']}.json",
                 {"workload": wl.name, "seed": args.seed, "measure": out})
    print(json.dumps(out))
    errors = []
    if missing:
        errors.append(f"spans never fired on {wl.name}: {', '.join(missing)}")
    if out["coverage"] < MIN_COVERAGE:
        errors.append(f"top-level spans cover {out['coverage']:.1%} of wall_s")
    for e in errors:
        print(f"traced run failed: {e}", file=sys.stderr)
    return 3 if errors else 0


def spawn(argv: list[str], impl: str | None) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py")] + argv, cwd=ROOT,
                          env=child_env(impl), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {done.returncode}")
    return last_json_line(done.stdout)


def compiled_available() -> bool:
    done = subprocess.run([sys.executable, "-c", "import adjkit._termkernels_c"],
                          cwd=ROOT, env=child_env(None), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return done.returncode == 0


def run_traced(args) -> int:
    """--trace 1: per-layer metrics from traced runs, one per kernel impl."""
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    impls = ["py"] + (["c"] if compiled_available() else [])
    report = {}
    for impl in impls:
        plain = spawn(base + ["--child", "plain"], impl)
        traced = spawn(base + ["--child", "traced"], impl)
        factor = traced["layer_factor"]
        layers = {k: (v * factor if u == "s" else v, u)
                  for k, (v, u) in traced["layers"].items()}
        layers["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
        layers["trace.coverage"] = (traced["coverage"], "ratio")
        report[impl] = (plain, traced, layers)
        print(f"impl {impl} ({traced['info']['impl']}): untraced wall_s "
              f"{plain['wall_s']:.6g} s, traced wall_s {traced['wall_s']:.6g} s")
        for k, (v, u) in layers.items():
            print(f"  {impl}: {k} = {v:.6g} {u}")
        print("  info: " + json.dumps(traced["info"], sort_keys=True))
    plain, traced, layers = report["py"]
    attempted = sum(r["attempted"] for p_t in report.values() for r in p_t[:2])
    failed = sum(r["failed"] for p_t in report.values() for r in p_t[:2])
    print(result_line(failed == 0, attempted, failed, layers))
    return 0


def run_all(args) -> int:
    """Every workload, runs interleaved, each in a fresh process."""
    seconds = ["--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    results: dict = {name: [] for name in NAMES}
    for r in range(args.runs):
        order = NAMES[r % len(NAMES):] + NAMES[:r % len(NAMES)]
        for name in order:
            out = spawn(["--workload", name, "--seed", str(args.seed + r),
                         "--trace", "0"] + seconds, None)
            results[name].append(out)
            print(f"run {r} {name}: " + json.dumps(out), flush=True)
    print(f"\n{'workload':<13}" + "".join(f"{k:>16}" for k in END_TO_END_UNITS)
          + f"{'failed_frac':>13}")
    print(f"{'':<13}" + "".join(f"{u:>16}" for u in END_TO_END_UNITS.values()))
    for name, outs in results.items():
        med = {k: statistics.median(o["metrics"][k]["value"] for o in outs)
               for k in END_TO_END_UNITS}
        frac = sum(o["failed"] for o in outs) / sum(o["attempted"] for o in outs)
        print(f"{name:<13}" + "".join(f"{med[k]:>16.6g}" for k in END_TO_END_UNITS)
              + f"{frac:>13.3g}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--all", action="store_true", help="every workload, interleaved")
    ap.add_argument("--runs", type=int, default=3, help="with --all")
    ap.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "adjkit" / "__init__.py").is_file():
        print(f"error: no adjkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.child:
        return run_child(args)
    return run_traced(args) if args.trace else run_timed(args)


if __name__ == "__main__":
    sys.exit(main())
