"""seqlc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload twin899 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones and writes the
spans to ``.perfbench_out/``.  The last line of standard output is the
result as one JSON object.  The exit code is 0 only when every output
matched its reference and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Put the checkout's src first on sys.path, or exit 2 if it has none."""
    if not (SRC / "seqlc" / "__init__.py").is_file():
        sys.exit(f"error: no seqlc sources under {SRC}")
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def import_workloads():
    import workloads

    import seqlc

    if Path(seqlc.__file__).resolve().parent != SRC / "seqlc":
        sys.exit(f"error: seqlc was imported from {seqlc.__file__}, not {SRC}")
    return workloads


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Time a cold import plus input building in this fresh interpreter."""
    t0 = perf_counter()
    wl = import_workloads()
    wl.build_inputs(workload, seed)
    print(perf_counter() - t0)


def setup_seconds(wl, workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, host-scaled) seconds of SETUP_REPEATS set-ups in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    host = wl.Host()
    times = []
    for _ in range(SETUP_REPEATS):
        scale = host.calibrate() / wl.CALIBRATION_REF_S
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: set-up probe exited with {done.returncode}")
        raw = float(done.stdout.split()[-1])
        times.append((raw, raw / scale))
    return times


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_one(args) -> int:
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)} or all")
    end_to_end, per_layer = declared_metrics()
    reference = wl.load_reference(HERE / "reference.json")
    setup = [] if args.trace else setup_seconds(wl, args.workload, args.seed)
    inputs = wl.build_inputs(args.workload, args.seed)
    tracer = wl.Tracer() if args.trace else None
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    problem = None
    try:
        if args.workload == "cli-files":
            expected = reference["cli-files"][wl.variant(args.seed)]
            if args.trace:
                res = wl.trace_cli(inputs, expected, args.seconds, tmp, tracer)
            else:
                res = wl.measure_cli(inputs, expected, args.seconds, tmp)
        else:
            expected = wl.campaign_expectation(inputs, reference, args.seed)
            if args.trace:
                res = wl.trace_campaigns(inputs, expected, args.seconds, tracer)
            else:
                res = wl.measure_campaigns(inputs, expected, args.seconds)
    except wl.CheckFailed as exc:
        problem = str(exc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if problem is not None:
        sys.stderr.write(f"error: {args.workload} seed {args.seed}: {problem}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        metrics = dict.fromkeys(per_layer, 0.0)
        metrics.update(res["metrics"])
        units = per_layer
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        print(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        print("# self time by span: name, spans, total ms")
        for name, count, own in tracer.self_time_table():
            print(f"#   {name:40s} {count:8d} {own * 1e3:12.1f}")
    else:
        metrics = dict(res["metrics"], setup_s=statistics.median(t for _, t in setup))
        raw = dict(res["raw"], setup_s=statistics.median(t for t, _ in setup))
        units = end_to_end
        print(f"# samples: {res['samples']}")
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    unknown = set(metrics) - set(units)
    missing = set(units) - set(metrics)
    if unknown or missing:
        sys.exit(f"error: metrics differ from BENCHMARK.json: "
                 f"unknown {sorted(unknown)}, missing {sorted(missing)}")
    for name in units:
        print(f"{args.workload:14s} {name:46s} {metrics[name]:14.6g} {units[name]}")
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        sys.exit(f"error: non-finite metrics {bad}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    wl = import_workloads()
    results, status = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=180 + 2 * args.seconds)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or done.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
