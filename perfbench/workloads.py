"""Workload inputs, measured loops and correctness checks of the benchmark.

Every input is built from ``--seed`` and handed to the library through its
public calls: the named-campaign builders, ``run_campaigns``,
``emit_report``, ``json_to_csv``, ``cli.main`` and the stage functions
that ``analyze_pair`` calls.  Nothing inside ``seqlc`` is timed or changed;
the traced run records spans around those calls from here.

Each batch starts with an empty ``is_ideal`` cache, because every
``seqlc`` command a user runs is a fresh process: a warm cache would serve
a repeated pair's ideal-autocorrelation checks for free.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing.process
import os
import random
import resource
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from seqlc import cli, harness
from seqlc.complexity import (
    LCReport,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_max,
    z_set_sizes,
)
from seqlc.interleave import tang_ding
from seqlc.sequences import (
    GroupElement,
    apply_group,
    autocorrelation_profile,
    is_ideal,
)

from spans import Tracer, median_or_zero

END_TO_END = (
    "ops_per_s",
    "cpu_ms_per_op",
    "op_ms_p50",
    "op_ms_p90",
    "peak_rss_mib",
    "setup_s",
)

# Stage spans of one replayed pair, in the order analyze_pair runs them.
STAGES = (
    "sequences.apply_group",
    "sequences.is_ideal",
    "complexity.z_set_sizes",
    "interleave.tang_ding",
    "complexity.lc_gcd",
    "complexity.lc_berlekamp_massey",
    "sequences.autocorrelation_profile",
    "complexity.two_adic_max",
)
CLI_COMMANDS = ("gen", "interleave", "lc", "autocorr", "verify", "report")

PER_LAYER = (
    *(f"{stage}.us_per_pair" for stage in STAGES),
    "sequences.is_ideal.cache_hit_ratio",
    "harness.run_campaign.ms_p50",
    "harness.pools_started",
    "harness.workers_started",
    "harness.pool.busy_ratio",
    "harness.pool.speedup_vs_jobs1",
    "harness.emit_report.json_ms",
    "harness.emit_report.csv_ms",
    "harness.json_to_csv_ms",
    "sequences.build_family_ms",
    "harness.read_sequence_ms",
    "harness.write_sequence_ms",
    "interleave.is_optimal_ms",
    *(f"cli.{cmd}.ms_p50" for cmd in CLI_COMMANDS),
    "kernel.bm_steps",
    "kernel.rotations",
    "trace.stage_coverage",
    "trace.overhead_ratio",
)

# jobs for each campaign workload; "cli-files" drives cli.main instead.
CAMPAIGN_JOBS = {"twin899": 1, "hall283-jobs2": 2, "small-jobs2": 2}
WORKLOADS = (*CAMPAIGN_JOBS, "cli-files")

# Host-speed scaling (see Host) holds only where the cost is interpreter
# work like calibration_loop's.  small-jobs2 is pool start-up, fork and
# IPC: in one run its pass rate moved within +-15% while the calibration
# time moved 2.7x, so scaling it would add noise, not remove it.
UNSCALED = {"small-jobs2"}

# small-jobs2 and cli-files check one digest per seed variant, recorded for
# VARIANTS variants; twin899 and hall283-jobs2 check every CSV row instead.
VARIANTS = 64
SMALL_MAX_N = 143
PAIRS_PER_CAMPAIGN = {"twin899": 8, "hall283-jobs2": 128}


def variant(seed: int) -> int:
    return seed % VARIANTS


class CheckFailed(Exception):
    """An output differs from the reference recorded for its input."""


# ---------------------------------------------------------------------------
# Process-level measurements


def cpu_seconds(who=None) -> float:
    """CPU seconds of this process plus its reaped children (or just one)."""
    whos = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if who is None else (who,)
    total = 0.0
    for w in whos:
        ru = resource.getrusage(w)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak resident memory of this process or of its largest child (Linux KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def clear_ideal_cache() -> None:
    clear = getattr(is_ideal, "cache_clear", None)
    if clear is not None:
        clear()


def ideal_cache_counts() -> tuple[int, int]:
    info = getattr(is_ideal, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def percentile(values, q: int) -> float:
    """The q-th percentile of at least two values (statistics' exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


# The calibration loop takes this long on a quiet host of the kind the
# baseline in perfbench/README.md was measured on.
CALIBRATION_REF_S = 0.005
_CALIBRATION_BITS = random.Random(1).getrandbits(4000)


def calibration_loop() -> int:
    """Fixed interpreter work like the kernels': big-int shifts, ANDs,
    popcounts and dict updates.  It calls nothing in seqlc, so no change to
    the library can change its cost."""
    stream, acc, counts = _CALIBRATION_BITS, 0, {}
    mask, window = stream >> 1000, 0
    for k in range(6000):
        window = (window << 1) | ((stream >> (k % 4000)) & 1)
        acc ^= (mask & window).bit_count() & 1
        counts[k & 7] = counts.get(k & 7, 0) + 1
    return acc


class Host:
    """Host-speed calibration, with single-process work pinned to one CPU.

    On a shared virtual machine the guest's CPUs run up to 2x slower for
    seconds to minutes at a time, whatever this process does, and the two
    CPUs were seen 1.3x apart at the same moment.  Every ``period`` seconds
    ``tick`` times ``calibration_loop`` on the CPUs the work runs on: the
    one CPU a ``pin``-ned run is held to, or each CPU in turn for pool
    work, whose workers must not inherit a pinning.  ``scale()`` is the
    mean calibration time over the run divided by CALIBRATION_REF_S; the
    run's times are divided by it, so they read as on the reference host.
    (Scaling each batch by the tick before it was tried and spread more:
    one 5 ms sample is a noisy speed estimate.)
    """

    def __init__(self, pin: bool = False, period: float = 0.25):
        self.period = period
        self.allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.cpus = sorted(self.allowed)
        self.pin = pin and len(self.cpus) > 1
        self.samples: list[float] = []
        self.last = -math.inf

    def calibrate(self) -> float:
        """Mean calibration seconds over the CPUs the process may use now."""
        cpus = sorted(os.sched_getaffinity(0)) if self.cpus else []
        if len(cpus) < 2:
            t0 = perf_counter()
            calibration_loop()
            return perf_counter() - t0
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                t0 = perf_counter()
                calibration_loop()
                times.append(perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, set(cpus))
        return statistics.mean(times)

    def tick(self) -> None:
        if perf_counter() - self.last >= self.period:
            self.samples.append(self.calibrate())
            self.last = perf_counter()

    def scale(self) -> float:
        return statistics.mean(self.samples) / CALIBRATION_REF_S

    def __enter__(self):
        if self.pin:
            os.sched_setaffinity(0, {self.cpus[0]})
        return self

    def __exit__(self, *exc):
        if self.pin:
            os.sched_setaffinity(0, self.allowed)


@dataclasses.dataclass
class Tally:
    """What an untraced run measured, summed over its batches."""

    batches: int = 0
    ops: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    latency: list = dataclasses.field(default_factory=list)  # seconds, one per op

    def add(self, ops: int, wall: float, cpu: float, latency) -> None:
        self.batches += 1
        self.ops += ops
        self.wall += wall
        self.cpu += cpu
        self.latency += latency

    def summary(self, scale: float = 1.0) -> dict:
        """End-to-end metrics, set-up time aside, with times divided by ``scale``."""
        return {
            "ops_per_s": self.ops / self.wall * scale,
            "cpu_ms_per_op": self.cpu * 1e3 / self.ops / scale,
            "op_ms_p50": statistics.median(self.latency) * 1e3 / scale,
            "op_ms_p90": percentile(self.latency, 90) * 1e3 / scale,
            "peak_rss_mib": peak_rss_mib(),
        }


@contextlib.contextmanager
def count_processes(counter: dict):
    """Count process pools created and worker processes started."""
    init = ProcessPoolExecutor.__init__
    start = multiprocessing.process.BaseProcess.start

    def counting_init(self, *args, **kwargs):
        counter["pools"] += 1
        init(self, *args, **kwargs)

    def counting_start(self):
        counter["workers"] += 1
        start(self)

    ProcessPoolExecutor.__init__ = counting_init
    multiprocessing.process.BaseProcess.start = counting_start
    try:
        yield
    finally:
        ProcessPoolExecutor.__init__ = init
        multiprocessing.process.BaseProcess.start = start


# ---------------------------------------------------------------------------
# Inputs


def pair_kernel_counts(n: int) -> tuple[int, int]:
    """(Berlekamp-Massey steps, rotations) computed for one pair of period n.

    BM runs 2N steps on w of period N = 4n; the rotate-XOR-popcount loops
    examine N - 1 shifts for the profile and n - 1 for each is_ideal check,
    counted as if the is_ideal cache were empty.
    """
    return 8 * n, (4 * n - 1) + 2 * (n - 1)


@dataclasses.dataclass(frozen=True)
class CampaignInputs:
    """Campaign specs and the seed's order of their grid points.

    With ``per_campaign`` set, batch i takes the next ``per_campaign``
    points of every spec in the shuffled order (wrapping around); without
    it, every batch is the whole list of specs.
    """

    workload: str
    jobs: int
    specs: tuple
    order: tuple
    per_campaign: int | None

    def batch(self, i: int) -> list:
        if self.per_campaign is None:
            return list(self.specs)
        k = self.per_campaign
        return [
            dataclasses.replace(
                spec, grid=tuple(pts[(i * k + j) % len(pts)] for j in range(k))
            )
            for spec, pts in zip(self.specs, self.order)
        ]


def _period(spec) -> int:
    return harness.build_family(spec.family_a, spec.param, spec.variant_a).period


def campaign_inputs(workload: str, seed: int) -> CampaignInputs:
    rng = random.Random(seed)
    if workload == "twin899":
        specs = [s for s in harness.named_campaigns("theorem9") if s.param == 29]
    elif workload == "hall283-jobs2":
        specs = [s for s in harness.named_campaigns("theorem6") if s.param == 283]
    elif workload == "small-jobs2":
        specs = [
            s
            for s in harness.named_campaigns("all", seed=variant(seed))
            if _period(s) <= SMALL_MAX_N
        ]
    else:
        raise ValueError(f"not a campaign workload: {workload!r}")
    per = PAIRS_PER_CAMPAIGN.get(workload)
    order = () if per is None else tuple(
        tuple(rng.sample(s.grid, len(s.grid))) for s in specs
    )
    return CampaignInputs(workload, CAMPAIGN_JOBS[workload], tuple(specs), order, per)


# cli-files: (family, size flag, size, output file).  Sizes are fixed so
# that every seed runs commands of the same cost; the seed picks r and s.
CLI_FAMILIES = (
    ("m-sequence", "--l", 7, "m.txt"),
    ("legendre", "--p", 131, "l.txt"),
    ("legendre-prime", "--p", 131, "lp.txt"),
    ("hall", "--p", 127, "h.txt"),
    ("twin-prime", "--p", 11, "t.txt"),
    ("twin-prime-tau", "--p", 11, "tt.txt"),
)
CLI_FILE_SUFFIXES = (".txt", ".json", ".csv")
# Outputs that carry run timings and so are left out of the digest.
CLI_UNDIGESTED = ("v.json",)


def _family_period(family: str, size: int) -> int:
    if family == "m-sequence":
        return (1 << size) - 1
    if family.startswith("twin-prime"):
        return size * (size + 2)
    return size


def cli_series(seed: int) -> list[list[str]]:
    """The seed variant's cli.main argv lists; file names are relative."""
    rng = random.Random(variant(seed))
    series = []
    for family, flag, size, out in CLI_FAMILIES:
        n = _family_period(family, size)
        r = rng.randrange(n)
        s = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        series.append(["gen", family, flag, str(size), "--r", str(r),
                       "--s", str(s), "--out", out])
    # 15 commands, 3 of them a slow verify of about the same cost: p50 falls
    # inside the 12 fast commands and p90 in the middle of the verifies,
    # away from the boundary between the two groups.
    series += [
        ["interleave", "l.txt", "lp.txt", "--out", "w.txt"],
        ["lc", "w.txt"],
        ["lc", "m.txt", "h.txt"],
        ["autocorr", "w.txt"],
        ["autocorr", "t.txt"],
        ["verify", "theorem5", "--p", "19", "--out", "v.json"],
        ["report", "v.json", "--format", "csv", "--out", "v.csv"],
        ["verify", "theorem5", "--p", "19", "--format", "csv", "--out", "v2.csv"],
        ["verify", "theorem5", "--p", "23", "--format", "csv", "--out", "v3.csv"],
    ]
    return series


def cli_kernel_counts(series) -> tuple[int, int]:
    """(BM steps, rotations) computed for one pass over the series."""
    period = {out: _family_period(f, size) for f, _, size, out in CLI_FAMILIES}
    period["w.txt"] = 4 * period["l.txt"]
    bm = rot = 0
    for argv in series:
        files = [a for a in argv[1:] if a in period]
        if argv[0] == "lc" and len(files) == 1:
            bm += 2 * period[files[0]]
        elif argv[0] == "lc":
            pb, pr = pair_kernel_counts(period[files[0]])
            bm, rot = bm + pb, rot + pr
        elif argv[0] == "autocorr":
            rot += 2 * (period[files[0]] - 1)  # profile, then ideal/optimal check
        elif argv[0] == "verify":
            for spec in harness.named_campaigns(argv[1]):
                if spec.param == int(argv[3]):
                    pb, pr = pair_kernel_counts(_period(spec))
                    bm, rot = bm + pb * len(spec.grid), rot + pr * len(spec.grid)
    return bm, rot


def build_inputs(workload: str, seed: int):
    """Everything a workload needs before its first measured operation."""
    if workload == "cli-files":
        cli.build_parser()
        return cli_series(seed)
    return campaign_inputs(workload, seed)


# ---------------------------------------------------------------------------
# Reference outputs


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_rows(reference: dict, specs) -> dict:
    """(campaign, r, s) -> expected CSV row, over the full grid of each spec."""
    rows = {}
    for spec in specs:
        entry = reference["rows"][spec.name]
        grid = sorted(spec.grid, key=lambda g: (g.r, g.s))
        if len(grid) != len(entry["index"]):
            raise CheckFailed(f"{spec.name}: grid differs from the reference")
        for g, c in zip(grid, entry["index"]):
            tail = entry["tails"][int(c, 36)]
            rows[(spec.name, g.r, g.s)] = f"{entry['n']},{g.r},{g.s},{tail}"
    return rows


def encode_rows(results) -> dict:
    """Reference entries for full-grid campaign results (inverse of reference_rows)."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    lines = iter(harness.emit_report(results, "csv").splitlines()[1:])
    out = {}
    for res in results:
        tails, index, n = [], [], None
        for pt in res.points:
            if pt.report is None:
                raise ValueError(f"{res.spec.name}: a reference point has no report")
            n, _, _, tail = next(lines).split(",", 3)
            if tail not in tails:
                tails.append(tail)
            index.append(digits[tails.index(tail)])
        out[res.spec.name] = {"n": int(n), "tails": tails, "index": "".join(index)}
    return out


def check_campaign_batch(expected, results, csv, round_trip) -> int:
    """Raise CheckFailed on a wrong output; return the number of failed pairs."""
    if round_trip != csv:
        raise CheckFailed("json_to_csv of the JSON report differs from the CSV")
    if isinstance(expected, str):
        digest = hashlib.sha256(csv.encode()).hexdigest()
        if digest != expected:
            raise CheckFailed(f"CSV digest {digest} differs from the reference")
    else:
        lines = iter(csv.splitlines()[1:])
        for res in results:
            for pt in res.points:
                if pt.report is None:
                    continue
                row = next(lines, None)
                want = expected.get((res.spec.name, pt.r, pt.s))
                if row != want:
                    raise CheckFailed(
                        f"{res.spec.name} r={pt.r} s={pt.s}: CSV row {row!r}, "
                        f"reference {want!r}"
                    )
        extra = next(lines, None)
        if extra is not None:
            raise CheckFailed(f"CSV row {extra!r} belongs to no analyzed pair")
    return sum(not pt.passed for res in results for pt in res.points)


def campaign_expectation(inputs: CampaignInputs, reference: dict, seed: int):
    if inputs.per_campaign is None:
        return reference[inputs.workload][variant(seed)]
    return reference_rows(reference, inputs.specs)


# ---------------------------------------------------------------------------
# Campaign workloads


def emit_all(results):
    text = harness.emit_report(results, "json")
    csv = harness.emit_report(results, "csv")
    return text, csv, harness.json_to_csv(text)


def measure_campaigns(inputs, expected, seconds: float) -> dict:
    """Untraced run: batches until ``seconds`` have passed.

    An op is one grid pair; its latency is its campaign's wall time shared
    out over the campaign's pairs.
    """
    tally = Tally()
    failed = 0
    end = perf_counter() + seconds
    with Host(pin=inputs.jobs == 1) as host:
        while not tally.batches or perf_counter() < end:
            host.tick()
            specs = inputs.batch(tally.batches)
            clear_ideal_cache()
            c0, t0 = cpu_seconds(), perf_counter()
            results = harness.run_campaigns(specs, jobs=inputs.jobs)
            _, csv, round_trip = emit_all(results)
            wall, cpu = perf_counter() - t0, cpu_seconds() - c0
            failed += check_campaign_batch(expected, results, csv, round_trip)
            tally.add(sum(len(res.points) for res in results), wall, cpu,
                      [res.wall_time_s / len(res.points) for res in results])
    return run_result(tally, failed, host, inputs.workload not in UNSCALED)


def run_result(tally: Tally, failed: int, host: Host, scaled: bool = True) -> dict:
    return {
        "attempted": tally.ops,
        "failed": failed,
        "metrics": tally.summary(host.scale() if scaled else 1.0),
        "raw": tally.summary(),
        "samples": {"batches": tally.batches, "op_latencies": len(tally.latency),
                    "calibrations": len(host.samples)},
    }


def _base_period(res) -> int:
    for pt in res.points:
        if pt.report is not None:
            return pt.report.n
    return _period(res.spec)


def replay_pair(tr: Tracer, base_a, base_b, sigma) -> LCReport:
    """analyze_pair's stages, one leaf span each, rebuilt into an LCReport."""
    b = tr.call("sequences.apply_group", apply_group, base_b, sigma)
    ideal = tr.call("sequences.is_ideal", is_ideal, base_a)
    ideal = tr.call("sequences.is_ideal", is_ideal, b) and ideal
    if not ideal:
        raise CheckFailed("replayed pair has a non-ideal base")
    z_ab, z_sum = tr.call("complexity.z_set_sizes", z_set_sizes, base_a, b)
    w = tr.call("interleave.tang_ding", tang_ding, base_a, b)
    n = base_a.period
    return LCReport(
        n=n,
        lc_direct=tr.call("complexity.lc_gcd", lc_gcd, w),
        lc_bm=tr.call("complexity.lc_berlekamp_massey", lc_berlekamp_massey, w),
        lc_formula=2 * n + 2 - z_ab - z_sum,
        z_ab=z_ab,
        z_sum=z_sum,
        attains_max=z_sum == 0,
        autocorr_values=tr.call(
            "sequences.autocorrelation_profile", autocorrelation_profile, w
        ),
        two_adic_max=tr.call("complexity.two_adic_max", two_adic_max, w),
    )


def report_mismatch(got: LCReport, want: LCReport) -> list[str]:
    return [
        f.name
        for f in dataclasses.fields(LCReport)
        if getattr(got, f.name) != getattr(want, f.name)
    ]


def replay_batch(tr: Tracer, specs, results, batch: int) -> None:
    """Replay every analyzed pair at jobs 1 and compare it with its report."""
    with tr.span("workload", key=f"batch{batch}"):
        for spec, res in zip(specs, results):
            with tr.span("campaign", key=spec.name):
                param_b = spec.param if spec.param_b is None else spec.param_b
                base_a = tr.call("harness.build_family", harness.build_family,
                                 spec.family_a, spec.param, spec.variant_a)
                base_b = tr.call("harness.build_family", harness.build_family,
                                 spec.family_b, param_b, spec.variant_b)
                for pt in res.points:
                    if pt.report is None:
                        continue
                    with tr.span("pair", key=f"{spec.name}:{pt.r}:{pt.s}"):
                        got = replay_pair(tr, base_a, base_b, GroupElement(pt.r, pt.s))
                    bad = report_mismatch(got, pt.report)
                    if bad:
                        raise CheckFailed(
                            f"{spec.name} r={pt.r} s={pt.s}: replayed stages "
                            f"differ from the LCReport in {bad}"
                        )


def trace_campaigns(inputs, expected, seconds: float, tr: Tracer) -> dict:
    """Traced run: each batch runs untraced at the workload's jobs, then at
    jobs 1, then replays its pairs through the stage functions with spans."""
    attempted = failed = 0
    run_ms, busy, speedup, emit = [], [], [], {"json": [], "csv": [], "rt": []}
    pools, workers, hits, lookups = [], [], 0, 0
    bm = rot = 0
    wall_1 = wall_replay = 0.0
    end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < end:
        specs = inputs.batch(i)
        counter = {"pools": 0, "workers": 0}
        clear_ideal_cache()
        h0, m0 = ideal_cache_counts()
        who = resource.RUSAGE_CHILDREN if inputs.jobs > 1 else resource.RUSAGE_SELF
        c0, t0 = cpu_seconds(who), perf_counter()
        with count_processes(counter):
            results = harness.run_campaigns(specs, jobs=inputs.jobs)
        wall_j = perf_counter() - t0
        busy.append((cpu_seconds(who) - c0) / (inputs.jobs * wall_j))
        pools.append(counter["pools"])
        workers.append(counter["workers"])
        run_ms += [res.wall_time_s * 1e3 for res in results]
        t = perf_counter()
        text = harness.emit_report(results, "json")
        emit["json"].append(perf_counter() - t)
        t = perf_counter()
        csv = harness.emit_report(results, "csv")
        emit["csv"].append(perf_counter() - t)
        t = perf_counter()
        round_trip = harness.json_to_csv(text)
        emit["rt"].append(perf_counter() - t)
        failed += check_campaign_batch(expected, results, csv, round_trip)
        for res in results:
            pb, pr = pair_kernel_counts(_base_period(res))
            bm, rot = bm + pb * len(res.points), rot + pr * len(res.points)
        attempted += sum(len(res.points) for res in results)

        if inputs.jobs > 1:
            clear_ideal_cache()
            h0, m0 = ideal_cache_counts()
            t = perf_counter()
            serial = harness.run_campaigns(specs, jobs=1)
            w1 = perf_counter() - t
            if harness.emit_report(serial, "csv") != csv:
                raise CheckFailed("jobs 1 and jobs > 1 give different CSV")
        else:
            serial, w1 = results, wall_j
        h1, m1 = ideal_cache_counts()
        hits, lookups = hits + h1 - h0, lookups + (h1 - h0) + (m1 - m0)
        speedup.append(w1 / wall_j)

        clear_ideal_cache()
        n_spans = len(tr.spans)
        replay_batch(tr, specs, serial, i)
        root = tr.spans[n_spans]
        wall_replay += root[2] - root[1]
        wall_1 += w1
        i += 1

    pair_stages = tr.children_by_parent("pair")
    pair_time = sum(tr.durations("pair"))
    layer = {
        f"{stage}.us_per_pair": median_or_zero(p.get(stage, 0.0) for p in pair_stages) * 1e6
        for stage in STAGES
    }
    layer.update({
        "sequences.is_ideal.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "harness.run_campaign.ms_p50": statistics.median(run_ms),
        "harness.pools_started": statistics.median(pools),
        "harness.workers_started": statistics.median(workers),
        "harness.pool.busy_ratio": statistics.median(busy),
        "harness.pool.speedup_vs_jobs1": statistics.median(speedup),
        "harness.emit_report.json_ms": statistics.median(emit["json"]) * 1e3,
        "harness.emit_report.csv_ms": statistics.median(emit["csv"]) * 1e3,
        "harness.json_to_csv_ms": statistics.median(emit["rt"]) * 1e3,
        "sequences.build_family_ms": median_or_zero(tr.durations("harness.build_family")) * 1e3,
        "kernel.bm_steps": bm / attempted,
        "kernel.rotations": rot / attempted,
        "trace.stage_coverage": sum(sum(p.values()) for p in pair_stages) / pair_time,
        "trace.overhead_ratio": wall_replay / wall_1,
    })
    return {"attempted": attempted, "failed": failed, "batches": i, "metrics": layer}


# ---------------------------------------------------------------------------
# cli-files


def _is_file_arg(arg: str) -> bool:
    return "/" not in arg and arg.endswith(CLI_FILE_SUFFIXES)


def run_command(argv, tmp) -> tuple[int, str, str, float]:
    """One cli.main call on a cold is_ideal cache: (exit code, stdout, stderr, s)."""
    real = [os.path.join(tmp, a) if _is_file_arg(a) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    clear_ideal_cache()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(real)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def run_series(series, tmp, tr: Tracer | None = None):
    """Run every command; return (per-command records, series wall seconds)."""
    records = []
    t0 = perf_counter()
    for j, argv in enumerate(series):
        if tr is None:
            records.append((argv, *run_command(argv, tmp)))
        else:
            with tr.span(f"cli.{argv[0]}", key=f"cmd{j}"):
                records.append((argv, *run_command(argv, tmp)))
    return records, perf_counter() - t0


def series_digest(records, tmp) -> str:
    h = hashlib.sha256()
    for argv, rc, out, err, _ in records:
        h.update(json.dumps([argv, rc, out, err]).encode())
    written = sorted(
        {a for argv, *_ in records for a in argv if _is_file_arg(a)}
        - set(CLI_UNDIGESTED)
    )
    for name in written:
        with open(os.path.join(tmp, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_series(records, tmp, expected: str) -> int:
    digest = series_digest(records, tmp)
    if digest != expected:
        raise CheckFailed(f"cli output digest {digest} differs from the reference")
    return sum(rc != 0 for _, rc, *_ in records)


def measure_cli(series, expected: str, seconds: float, tmp) -> dict:
    """Untraced run: the series, over and over, until ``seconds`` have passed."""
    tally = Tally()
    failed = 0
    end = perf_counter() + seconds
    with Host(pin=True) as host:
        while not tally.batches or perf_counter() < end:
            host.tick()
            c0 = cpu_seconds()
            records, wall = run_series(series, tmp)
            cpu = cpu_seconds() - c0
            failed += check_series(records, tmp, expected)
            tally.add(len(records), wall, cpu, [rec[-1] for rec in records])
    return run_result(tally, failed, host)


# Names cli.py looks up in its own namespace (and two it reads from harness);
# the traced run wraps each in a span for the length of a traced series.
CLI_TRACED = (
    "read_sequence", "write_sequence", "build_family", "apply_group",
    "analyze_pair", "lc_gcd", "lc_berlekamp_massey", "two_adic_gcd",
    "autocorrelation_profile", "is_ideal", "is_optimal", "tang_ding",
    "run_campaigns", "emit_report",
)
HARNESS_TRACED = ("named_campaigns", "json_to_csv")


@contextlib.contextmanager
def traced_cli(tr: Tracer):
    saved = []
    try:
        for module, names in ((cli, CLI_TRACED), (harness, HARNESS_TRACED)):
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                saved.append((module, name, fn))
                label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(module, name, tr.wrap(label, fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def trace_cli(series, expected: str, seconds: float, tmp, tr: Tracer) -> dict:
    """Traced run: each pass runs the series untraced, then with spans."""
    attempted = failed = 0
    by_cmd = {cmd: [] for cmd in CLI_COMMANDS}
    hits = lookups = 0
    wall_plain = wall_traced = 0.0
    end = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < end:
        h0, m0 = ideal_cache_counts()
        records, wall = run_series(series, tmp)
        h1, m1 = ideal_cache_counts()
        hits, lookups = hits + h1 - h0, lookups + (h1 - h0) + (m1 - m0)
        failed += check_series(records, tmp, expected)
        attempted += len(records)
        wall_plain += wall
        for argv, *_, dt in records:
            by_cmd[argv[0]].append(dt * 1e3)
        with traced_cli(tr), tr.span("workload", key=f"pass{passes}"):
            records, wall = run_series(series, tmp, tr)
        check_series(records, tmp, expected)
        wall_traced += wall
        passes += 1

    def span_ms(name):
        return median_or_zero(tr.durations(name)) * 1e3

    commands = [c for cmd in CLI_COMMANDS for c in tr.children_by_parent(f"cli.{cmd}")]
    covered = sum(sum(c.values()) for c in commands)
    command_time = sum(sum(tr.durations(f"cli.{cmd}")) for cmd in CLI_COMMANDS)
    bm, rot = cli_kernel_counts(series)
    layer = {f"cli.{cmd}.ms_p50": median_or_zero(v) for cmd, v in by_cmd.items()}
    layer.update({
        "sequences.is_ideal.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "harness.json_to_csv_ms": span_ms("harness.json_to_csv"),
        "sequences.build_family_ms": span_ms("harness.build_family"),
        "harness.read_sequence_ms": span_ms("harness.read_sequence"),
        "harness.write_sequence_ms": span_ms("harness.write_sequence"),
        "interleave.is_optimal_ms": span_ms("interleave.is_optimal"),
        "kernel.bm_steps": bm / len(series),
        "kernel.rotations": rot / len(series),
        "trace.stage_coverage": covered / command_time,
        "trace.overhead_ratio": wall_traced / wall_plain,
    })
    return {"attempted": attempted, "failed": failed, "batches": passes, "metrics": layer}
