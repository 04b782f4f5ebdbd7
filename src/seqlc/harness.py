"""Verification campaigns: build interleaved pairs over parameter grids,
analyze each pair, check expectations, and emit machine-readable reports.

A campaign fixes two base sequences (by family name and parameter), a grid
of group elements sigma = L^r M_s applied to the second base, and a claim
on the resulting linear complexity: exact, an upper bound, or absent (the
bound, -recorded and twoadic campaigns record the LC).  Every point asserts
optimal autocorrelation and 2-adic maximality, which the paper claims for
every interleaving of two ideal-autocorrelation sequences, the only pairs
analyze_pair accepts; so the JSON report's "asserted" and the expectation's
"optimal_autocorr" and "two_adic_max" are always true, kept for the report
format.  Grid points run independently (optionally in parallel) and
aggregate in lexicographic (r, s) order, so identical specs produce
identical reports.  Each distinct point (two base slots and one (r, s)) is
analyzed once per run, and its report checked against every repeat's claim.

The named campaigns wired into the CLI cover every quantitative claim the
library reproduces: Legendre pairs, m-sequence pairs sharing or not
sharing a minimal polynomial, Hall pairs in both residue classes mod 8,
Legendre-by-Hall pairs, twin-prime pairs, the below-ceiling spot checks,
a cross-family consistency sweep, and the 2-adic maximality sweep, which
re-runs the n <= 127 grids under an LC claim without that claim.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice, repeat

from .complexity import LCReport, analyze_pair
from .numtheory import legendre_symbol
from .sequences import (
    _HALVES,
    BinarySeq,
    GroupElement,
    hall_construction,
    hall_seq,
    legendre_seq,
    m_sequence,
    primitive_polynomials,
    twin_prime_seq,
)

# The builder of every family's base sequence at a parameter, but for
# m-sequence, whose variant build_family resolves to a polynomial first.
_BUILDERS = {
    "legendre": legendre_seq,
    "legendre-prime": partial(legendre_seq, variant="ell_prime"),
    "hall": hall_seq,
    "twin-prime": twin_prime_seq,
    "twin-prime-tau": partial(twin_prime_seq, variant="tau_t"),
}
FAMILIES = ("m-sequence", *_BUILDERS)

CSV_HEADER = (
    "n,r,s,lc_direct,lc_bm,lc_formula,z_ab,z_sum,attains_max,two_adic_max"
)
# The CSV fields a report gives, in header order: all but r and s.
CSV_REPORT_FIELDS = tuple(f for f in CSV_HEADER.split(",") if f not in ("r", "s"))
_CSV_VALUES = operator.itemgetter(*CSV_REPORT_FIELDS)
_FLAGS = ("false", "true")  # a bool as the CSV and the JSON spell it
# The exact type of each of those fields, so that no bool passes as a number.
_CSV_REPORT_TYPES = (int,) * 6 + (bool, bool)
_CSV_TYPE_ERROR = "CSV numbers must be ints and CSV flags bools"

# Largest period a family parameter or a sequence file may give.  The kernels
# are O(N^2), and a pair's interleaving has N = 4 * period, so larger inputs
# are rejected before anything is built.  Stays above the largest named base
# period (899).
MAX_PERIOD = 2**14 - 1


# ---------------------------------------------------------------------------
# Sequence file I/O (one line of '0'/'1' characters, optional trailing newline)


def read_sequence(path) -> BinarySeq:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read(MAX_PERIOD + 2)  # one period, a newline, one too many
        if text.endswith("\n"):
            text = text[:-1]
        if len(text) > MAX_PERIOD:
            raise ValueError(f"sequence longer than the period ceiling {MAX_PERIOD}")
        return BinarySeq.from_string(text)
    except ValueError as exc:  # a bad byte too: UnicodeDecodeError is one
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Campaign data model


@dataclass(frozen=True)
class Expectation:
    """A campaign's LC claim: exact, an upper bound, or neither (recorded).
    check also tests optimal autocorrelation and 2-adic maximality."""

    lc_exact: int | None = None
    lc_below: int | None = None

    def check(self, report: LCReport) -> list[str]:
        bad = []
        if self.lc_exact is not None and report.lc_formula != self.lc_exact:
            bad.append(f"LC {report.lc_formula} != expected {self.lc_exact}")
        if self.lc_below is not None and report.lc_formula >= self.lc_below:
            bad.append(f"LC {report.lc_formula} not below {self.lc_below}")
        if not set(report.autocorr_values) <= {0, -4}:
            extra = sorted(set(report.autocorr_values) - {0, -4})
            bad.append(f"autocorrelation values outside {{0, -4}}: {extra}")
        if not report.two_adic_max:
            bad.append("two_adic_max is False, expected True")
        return bad


@dataclass(frozen=True)
class CampaignSpec:
    """One family pair, one grid of group elements applied to the second base.

    param_b defaults to param; it differs only for cross-family pairs whose
    generators are keyed differently (a prime for one, an LFSR degree for
    the other) while still producing equal periods.
    """

    name: str
    family_a: str
    family_b: str
    param: int
    grid: tuple[GroupElement, ...]
    expectation: Expectation
    param_b: int | None = None
    variant_a: str | None = None
    variant_b: str | None = None

    def __post_init__(self):
        if self.param_b is None:
            object.__setattr__(self, "param_b", self.param)
        if not self.grid:
            raise ValueError("campaign grid must be nonempty")

    def echo(self) -> dict:
        return {
            "name": self.name,
            "family_a": self.family_a,
            "family_b": self.family_b,
            "param": self.param,
            "param_b": self.param_b,
            "grid_size": len(self.grid),
            "variant_a": self.variant_a,
            "variant_b": self.variant_b,
            "expectation": {
                **dataclasses.asdict(self.expectation),
                "optimal_autocorr": True,
                "two_adic_max": True,
            },
        }


@dataclass(frozen=True)
class PairResult:
    r: int
    s: int
    report: LCReport | None
    failures: tuple[str, ...]
    error: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures and self.error is None


@dataclass(frozen=True)
class CampaignResult:
    spec: CampaignSpec
    points: tuple[PairResult, ...]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(pt.passed for pt in self.points)


def _family_period(family: str, param: int) -> int:
    """Period of the base sequence that build_family gives at param."""
    if family == "m-sequence":
        return 2 ** min(param, 64) - 1  # 2**l itself is not built for a huge l
    if family.startswith("twin-prime"):
        return param * (param + 2)
    return param


def build_family(family: str, param: int, variant: str | None = None) -> BinarySeq:
    """Base sequence for a campaign slot.

    For m-sequences, variant selects the primitive polynomial: None is the
    smallest encoding, "alt" the second smallest, and a decimal string an
    explicit encoding.  No other family takes a variant.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # The generators reject a param <= 0 themselves.
    if param > 0 and _family_period(family, param) > MAX_PERIOD:
        raise ValueError(
            f"{family} parameter {param} gives a period above the ceiling {MAX_PERIOD}"
        )
    if family == "m-sequence":
        if variant is None:
            return m_sequence(param)
        if variant == "alt":
            alt = next(islice(primitive_polynomials(param), 1, None), None)
            if alt is None:
                raise ValueError(
                    f"m-sequence degree {param} has no second primitive polynomial"
                )
            return m_sequence(param, char_poly=alt)
        if not variant.isdecimal():
            raise ValueError(
                f"m-sequence variant {variant!r} is neither 'alt' nor a decimal encoding"
            )
        return m_sequence(param, char_poly=int(variant))
    if variant is not None:
        raise ValueError(f"family {family!r} takes no variant")
    return _BUILDERS[family](param)


def _run_input(base_a, base_b, sigma, expectations, reports):
    """One distinct input, analyzed once: a PairResult per expectation, one
    per point of the input.  The report is interned in reports, as equal
    reports are equal keys, so every point of a run or slice with an equal
    report shares one object."""
    try:
        report = analyze_pair(base_a, base_b, sigma)
    except ValueError as exc:  # a rejected point is a row; anything else is a defect
        return [PairResult(
            r=sigma.r, s=sigma.s, report=None, failures=("construction error",),
            error=f"{type(exc).__name__}: {exc}",
        )] * len(expectations)
    report = reports.setdefault(report, report)
    consistency = report.consistency_failures()
    return [
        PairResult(r=sigma.r, s=sigma.s, report=report,
                   failures=tuple(consistency + expectation.check(report)))
        for expectation in expectations
    ]


def _run_slice(*columns):
    """One pool task: a contiguous slice of distinct inputs with its own
    intern dict, so the pickled result carries each distinct report once."""
    return list(chain.from_iterable(map(_run_input, *columns, repeat({}))))


def _distinct_inputs(specs):
    """(columns, places, firsts): _run_input's columns, one row per distinct
    input in order of first point; per point, the index of its result in
    the inputs' results laid end to end; and per input, its first point,
    then the number of points.  An input is keyed by plain fields, as
    GroupElement hashes in Python.  Each base slot is built once, at the
    first spec that names it."""
    numbers, bases_a, bases_b, sigmas, expectations, firsts = {}, [], [], [], [], []
    point_inputs, nths, bases = [], [], {}
    for spec in specs:
        pair = ((spec.family_a, spec.param, spec.variant_a),
                (spec.family_b, spec.param_b, spec.variant_b))
        for slot in pair:
            if slot not in bases:
                bases[slot] = build_family(*slot)
        base_a, base_b = map(bases.__getitem__, pair)
        for sigma in sorted(spec.grid, key=lambda g: (g.r, g.s)):
            i = numbers.setdefault((pair, sigma.r, sigma.s), len(numbers))
            if i == len(sigmas):
                bases_a.append(base_a)
                bases_b.append(base_b)
                sigmas.append(sigma)
                expectations.append([])
                firsts.append(len(point_inputs))
            point_inputs.append(i)
            nths.append(len(expectations[i]))
            expectations[i].append(spec.expectation)
    firsts.append(len(point_inputs))
    # Input i's results start after those of the inputs before it.
    starts = list(accumulate(map(len, expectations), initial=0))
    return (
        (bases_a, bases_b, sigmas, expectations),
        list(map(operator.add, map(starts.__getitem__, point_inputs), nths)),
        firsts,
    )


def _in_point_order(parts, places, bounds):
    """Per part, the results of consecutive inputs, the points it completes
    in point order.  bounds[k] is the first point of part k's first input,
    and the last bound the number of points: every point before bounds[k + 1]
    belongs to an input in parts 0 .. k."""
    results = []
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        results += part
        yield list(map(results.__getitem__, places[lo:hi]))


def _regroup(specs, blocks) -> list[CampaignResult]:
    """Cut the point stream, given as lists, into one CampaignResult per
    spec, in order."""
    points = chain.from_iterable(blocks)
    results, t0 = [], time.perf_counter()
    for spec in specs:
        pts = tuple(islice(points, len(spec.grid)))
        t1 = time.perf_counter()
        results.append(CampaignResult(spec, pts, t1 - t0))
        t0 = t1
    return results


def run_campaigns(specs, jobs: int = 1) -> list[CampaignResult]:
    """Execute every grid point of every spec, through one pool when jobs > 1.

    A point fails on an inconsistent report or on a failed check of its
    spec's expectation: the LC claim, if any, optimal autocorrelation and
    2-adic maximality.  A campaign passes when all its points pass.

    Each distinct input, keyed by the spec's two slots and (r, s), is
    analyzed once per run at any jobs, and its one report is checked against
    the expectation of every point that repeats it.

    Grids run in (r, s) order and regroup per spec in spec order, so results
    do not depend on jobs.  At jobs 1 the distinct inputs run one at a time,
    each passing its points on to the regrouping as soon as it is done, and
    share one intern dict, so each distinct report is one object.  At
    jobs > 1 the distinct inputs are cut into contiguous slices of
    ceil(inputs / (4 * jobs)), about four per worker, and each slice is one
    pool task with its own intern dict: a slice may cut across campaigns,
    each one costs a round trip through the executor's threads in this
    process, and pickling sends each of its distinct reports once, so the run
    holds at most one object per distinct report per slice.  Equal reports
    share one object: callers must not mutate a report.

    wall_time_s runs from the previous campaign's last point to this
    campaign's last point.  At jobs > 1 it is the gap between arrivals, so a
    campaign that finishes inside another campaign's slice reads close to 0.
    A campaign made only of repeats of earlier points computes nothing, so
    it reads about 0 at any jobs.

    The run starts with the profile's halves cache empty, as a fresh process
    does; at jobs > 1 each worker fills its own.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _HALVES.clear()
    columns, places, firsts = _distinct_inputs(specs)
    if jobs == 1:
        parts = map(_run_input, *columns, repeat({}))
        return _regroup(specs, _in_point_order(parts, places, firsts))
    # Imported here, not at the top: the import loads multiprocessing, which
    # a jobs-1 run and every other command would pay for nothing.
    from concurrent.futures import ProcessPoolExecutor

    inputs = len(columns[0])
    chunk = max(1, math.ceil(inputs / (4 * jobs)))  # a range step >= 1
    cuts = range(0, inputs, chunk)
    slices = ([col[i:i + chunk] for i in cuts] for col in columns)
    bounds = firsts[:-1:chunk] + firsts[-1:]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(_run_slice, *slices)
        return _regroup(specs, _in_point_order(parts, places, bounds))


# ---------------------------------------------------------------------------
# Named campaigns

# Largest base period n of the twoadic sweep, which re-runs the small grids
# under an LC claim without that claim.  Every point checks the 2-adic
# verdict at any n; this bound only keeps the sweep's rows, which are part
# of the CSV contract.
TWO_ADIC_MAX_N = 127


def _recorded(spec: CampaignSpec, name: str, grid) -> CampaignSpec:
    """spec's pair as campaign name over grid, with no LC claim: the LC is
    recorded, and only the claims every point asserts are checked."""
    return dataclasses.replace(spec, name=name, grid=grid, expectation=Expectation())


def _product_grid(r_range, s_values) -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(r, s) for r in r_range for s in sorted(s_values)
    )


def _hall_s_reps(p: int) -> list[int]:
    """One sample index per cyclotomic class of order 6.  A sixth power maps
    each class to itself, so M_s of the Hall sequence (D0 u D1 u D3) and the
    Legendre symbol of s depend only on the class of s."""
    return sorted(map(min, hall_construction(p)[1]))


def theorem5_campaigns() -> list[CampaignSpec]:
    """Legendre pairs (ell, L^r(ell')), p in {7, 11, 19, 23}, r != 0: LC = 2p+2."""
    specs = []
    for p in (7, 11, 19, 23):
        spec = CampaignSpec(
            f"theorem5-p{p}", "legendre", "legendre-prime", p,
            _product_grid(range(1, p), (1,)), Expectation(lc_exact=2 * p + 2),
        )
        specs += [spec, _recorded(spec, spec.name + "-r0-recorded", (GroupElement(0, 1),))]
    return specs


def msequence_campaigns() -> list[CampaignSpec]:
    """m-sequence pairs, l in {3, 4, 5}: 2l+4 sharing the minimal polynomial, else 4l+4."""
    specs = []
    for l in (3, 4, 5):
        n = (1 << l) - 1
        specs.append(CampaignSpec(
            f"msequence-l{l}-same-poly", "m-sequence", "m-sequence", l,
            _product_grid(range(1, n), (1,)), Expectation(lc_exact=2 * l + 4),
        ))
        specs.append(CampaignSpec(
            f"msequence-l{l}-distinct-poly", "m-sequence", "m-sequence", l,
            _product_grid(range(0, n), (1,)), Expectation(lc_exact=4 * l + 4),
            variant_b="alt",
        ))
    return specs


def example1_campaign() -> list[CampaignSpec]:
    """Hall pair (h, L^2 M_j(h)), j in D4, at p = 31 = 7 mod 8: LC = (2p+10)/3."""
    p = 31
    _, classes = hall_construction(p)
    grid = tuple(GroupElement(2, j) for j in sorted(classes[4]))
    claim = Expectation(lc_exact=(2 * p + 10) // 3)
    return [CampaignSpec(f"example1-p{p}", "hall", "hall", p, grid, claim)]


def theorem6_campaigns() -> list[CampaignSpec]:
    """Hall pairs (h, L^r M_s(h)), p in {43, 283}, both 3 mod 8, r != 0: LC = 2p+2."""
    specs = []
    for p in (43, 283):
        grid = _product_grid(range(1, p), _hall_s_reps(p))
        claim = Expectation(lc_exact=2 * p + 2)
        specs.append(CampaignSpec(f"theorem6-p{p}", "hall", "hall", p, grid, claim))
    return specs


def theorem7_campaigns() -> list[CampaignSpec]:
    """Legendre-by-Hall pairs at p = 43 = 3 mod 8.

    The ceiling 2p+2 is claimed for every nonzero shift, and at r = 0
    exactly when the Legendre symbol of s matches the variant: -1 against
    ell, +1 against ell-prime.  The complementary r = 0 points are run with
    their LC recorded, not asserted.
    """
    p = 43
    reps = _hall_s_reps(p)
    claim = Expectation(lc_exact=2 * p + 2)
    specs = []
    for fam, sym in (("legendre", -1), ("legendre-prime", 1)):
        asserted = _product_grid(range(1, p), reps) + tuple(
            GroupElement(0, s) for s in reps if legendre_symbol(s, p) == sym
        )
        recorded = tuple(
            GroupElement(0, s) for s in reps if legendre_symbol(s, p) != sym
        )
        spec = CampaignSpec(f"theorem7-{fam}-p{p}", fam, "hall", p, asserted, claim)
        specs += [spec, _recorded(spec, spec.name + "-r0-recorded", recorded)]
    return specs


def theorem9_campaigns() -> list[CampaignSpec]:
    """Twin-prime pairs (t, L^r(t)) and (t, L^r(tau(t))), r coprime to n.

    Asserted at p = 5 and 29, both 1 mod 4 (LC = 2n+2).  The pairs at p = 11 =
    3 mod 4 are outside the LC claim; their LC is recorded, not asserted.
    """
    def twin_pairs(p):
        n = p * (p + 2)
        grid = _product_grid([r for r in range(1, n) if math.gcd(r, n) == 1], (1,))
        claim = Expectation(lc_exact=2 * n + 2)
        return [
            CampaignSpec(f"theorem9-p{p}-{fam}", "twin-prime", fam, p, grid, claim)
            for fam in ("twin-prime", "twin-prime-tau")
        ]

    return twin_pairs(5) + twin_pairs(29) + [
        _recorded(spec, spec.name + "-recorded", spec.grid) for spec in twin_pairs(11)
    ]


def remarks_campaigns() -> list[CampaignSpec]:
    """p = 31 = 7 mod 8 spot checks: Hall against Hall or Legendre stays below 2p+2."""
    p = 31
    grid = _product_grid(range(0, p), _hall_s_reps(p))
    claim = Expectation(lc_below=2 * p + 2)
    return [
        CampaignSpec(f"remarks-{fam}-p{p}", fam, "hall", p, grid, claim)
        for fam in ("hall", "legendre", "legendre-prime")
    ]


# The bound sweep's slots: the family, variant and parameter that build_family
# takes.  The sweep pairs the slots of equal base period in this order, which
# fixes its seeded draws.  A slot's label in a campaign name is its family,
# plus "-alt" for the alt variant.
_BOUND_POOL = (
    ("legendre", None, 7),
    ("legendre-prime", None, 7),
    ("m-sequence", None, 3),
    ("m-sequence", "alt", 3),
    ("legendre", None, 11),
    ("legendre-prime", None, 11),
    ("m-sequence", None, 4),
    ("m-sequence", "alt", 4),
    ("legendre", None, 19),
    ("legendre-prime", None, 19),
    ("legendre", None, 23),
    ("legendre-prime", None, 23),
    ("legendre", None, 31),
    ("legendre-prime", None, 31),
    ("hall", None, 31),
    ("m-sequence", None, 5),
    ("m-sequence", "alt", 5),
    ("twin-prime", None, 5),
    ("twin-prime-tau", None, 5),
    ("legendre", None, 43),
    ("hall", None, 43),
)


# Seed of the bound sweep's random group elements, unless one is given.
BOUND_SEED = 20240901
# Random group elements drawn for each pair of the bound sweep.
_BOUND_SIGMAS_PER_PAIR = 4


def bound_campaigns(seed: int = BOUND_SEED) -> list[CampaignSpec]:
    """Cross-family sweep: random group elements over every same-period pair.

    No exact LC is expected; each point exercises the built-in consistency
    checks (three methods agree, ceiling 2n+2 respected, attains_max matches
    z_sum) plus autocorrelation optimality and 2-adic maximality.
    """
    rng = random.Random(seed)
    pools = {}  # base period -> its slots, each with its label
    for fam, var, param in _BOUND_POOL:
        label = fam + "-alt" * (var == "alt")
        pools.setdefault(_family_period(fam, param), []).append((fam, var, param, label))
    specs = []
    for n, pool in sorted(pools.items()):
        units = [s for s in range(1, n) if math.gcd(s, n) == 1]
        for fa, va, pa, label_a in pool:
            for fb, vb, pb, label_b in pool:
                grid = tuple(
                    GroupElement(rng.randrange(n), rng.choice(units))
                    for _ in range(_BOUND_SIGMAS_PER_PAIR)
                )
                specs.append(CampaignSpec(
                    f"bound-n{n}-{label_a}-x-{label_b}", fa, fb, pa, grid, Expectation(),
                    param_b=pb, variant_a=va, variant_b=vb,
                ))
    return specs


def twoadic_campaigns() -> list[CampaignSpec]:
    """The n <= 127 grids under an LC claim, rerun with no LC claim."""
    builders = (
        theorem5_campaigns, msequence_campaigns, example1_campaign,
        theorem6_campaigns, theorem7_campaigns, theorem9_campaigns,
    )
    return [
        _recorded(spec, f"twoadic-{spec.name}", spec.grid)
        for build in builders
        for spec in build()
        if spec.expectation.lc_exact is not None
        and _family_period(spec.family_a, spec.param) <= TWO_ADIC_MAX_N
    ]


NAMED_CAMPAIGNS = {
    "theorem5": theorem5_campaigns,
    "msequence": msequence_campaigns,
    "example1": example1_campaign,
    "theorem6": theorem6_campaigns,
    "theorem7": theorem7_campaigns,
    "theorem9": theorem9_campaigns,
    "remarks": remarks_campaigns,
    "bound": bound_campaigns,
    "twoadic": twoadic_campaigns,
}


def named_campaigns(name: str, *, seed: int = BOUND_SEED) -> list[CampaignSpec]:
    """The specs of one named campaign, or of every one in NAMED_CAMPAIGNS
    order for "all".  seed reaches the bound sweep."""
    if name == "all":
        return [
            spec for key in NAMED_CAMPAIGNS for spec in named_campaigns(key, seed=seed)
        ]
    if name not in NAMED_CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}")
    build = NAMED_CAMPAIGNS[name]
    return build(seed=seed) if name == "bound" else build()


# ---------------------------------------------------------------------------
# Report emission


def _report_dict(report: LCReport) -> dict:
    profile = report.autocorr_values
    return {
        **vars(report),
        "autocorr_values": {str(v): profile[v] for v in sorted(profile)},
    }


def _json_array(items, indent: str) -> str:
    """A JSON array of encoded items, one per line at indent, as indent=2 lays
    it out; each item's own inner lines must already sit deeper."""
    if not items:
        return "[]"
    sep = ",\n" + indent
    return f"[\n{indent}{sep.join(items)}\n{indent[:-2]}]"


def _nest(text: str, indent: str) -> str:
    """An indent=2 dump moved to indent.  An encoded JSON string never holds
    a raw newline, so every newline in text starts a line of the layout."""
    return text.replace("\n", "\n" + indent)


def results_to_json(results: list[CampaignResult]) -> str:
    """The JSON report, exactly json.dumps(payload, indent=2) + "\\n" of

        {"campaigns": [{"spec": spec.echo(), "passed", "wall_time_s" (rounded
        to 6 places), "points": [{"r", "s", "asserted": true, "failures",
        "error", "report": _report_dict(report) or None}]}]}

    laid out from templates.  "asserted" is always true, as every point
    asserts the claims the paper makes for every interleaving; it stays for
    the report format.  An indent makes json.dumps run its pure-Python
    encoder, and run_campaigns gives all points with equal reports one
    report object (per pool slice), so each report object is dumped once per
    call, keyed by its identity.  The fragments go into one list, each
    report's text by reference, and are joined once.
    """
    dumps = json.dumps
    reports = {}  # id(report) -> its dump at the point depth
    out = ['{\n  "campaigns": [']
    sep = "\n    "
    for res in results:
        out += (
            sep,
            f'{{\n      "spec": {_nest(dumps(res.spec.echo(), indent=2), " " * 6)},\n'
            f'      "passed": {_FLAGS[res.passed]},\n'
            f'      "wall_time_s": {dumps(round(res.wall_time_s, 6))},\n'
            '      "points": [',
        )
        sep, point_sep = ",\n    ", "\n        "
        for pt in res.points:
            rep = pt.report
            if rep is None:
                report = "null"
            elif (report := reports.get(id(rep))) is None:
                report = reports[id(rep)] = _nest(dumps(_report_dict(rep), indent=2), " " * 10)
            out += (
                point_sep,
                f'{{\n          "r": {pt.r},\n          "s": {pt.s},\n'
                '          "asserted": true,\n'
                f'          "failures": {_json_array([dumps(f) for f in pt.failures], " " * 12)},\n'
                f'          "error": {"null" if pt.error is None else dumps(pt.error)},\n'
                '          "report": ',
                report,
                "\n        }",
            )
            point_sep = ",\n        "
        out.append("\n      ]\n    }" if res.points else "]\n    }")
    out.append("\n  ]\n}\n" if results else "]\n}\n")
    return "".join(out)


def _checked(fields) -> tuple:
    """A report's CSV values, in CSV_REPORT_FIELDS order, taken from its field
    mapping once their types are checked."""
    values = _CSV_VALUES(fields)
    if tuple(map(type, values)) != _CSV_REPORT_TYPES:
        raise TypeError(_CSV_TYPE_ERROR)
    return values


def _csv(rows, key) -> str:
    """The CSV report: the header, then one line per row (r, s, fields), with
    fields a report's field mapping.  The text of equal key(fields) is
    formatted once."""
    texts = {}  # key(fields) -> n and the report's text after s
    lines = [CSV_HEADER]
    for r, s, fields in rows:
        if type(r) is not int or type(s) is not int:
            raise TypeError(_CSV_TYPE_ERROR)
        if (text := texts.get(k := key(fields))) is None:
            n, *numbers, attains, two_adic = _checked(fields)
            text = texts[k] = n, ",".join(
                [*map(str, numbers), _FLAGS[attains], _FLAGS[two_adic]]
            )
        n, rest = text
        lines.append(f"{n},{r},{s},{rest}")
    return "\n".join(lines) + "\n"


def results_to_csv(results: list[CampaignResult]) -> str:
    """The CSV report.  Each report object is formatted once, keyed by the
    identity of its field mapping, as results_to_json dumps it once."""
    return _csv(
        ((pt.r, pt.s, pt.report.__dict__) for res in results for pt in res.points
         if pt.report is not None),
        id,
    )


def json_to_csv(text: str) -> str:
    """Convert emitted JSON back to the CSV schema (round-trip identity).
    Each distinct report is formatted once, keyed by its values after the
    type check, which runs at every row: True == 1, and both hash alike."""
    try:
        payload = json.loads(text)
    except RecursionError:  # nested deeper than the decoder's stack
        raise ValueError("not a seqlc JSON report") from None
    try:
        return _csv(
            ((pt["r"], pt["s"], pt["report"]) for camp in payload["campaigns"]
             for pt in camp["points"] if pt["report"] is not None),
            _checked,
        )
    except KeyError as exc:
        raise ValueError(f"report has no field {exc.args[0]!r}") from None
    except (TypeError, IndexError):
        raise ValueError("not a seqlc JSON report") from None


def emit_report(results: list[CampaignResult], format: str = "json") -> str:
    """Render campaign results as 'json' or 'csv' with a stable field order."""
    if format == "json":
        return results_to_json(results)
    if format == "csv":
        return results_to_csv(results)
    raise ValueError(f"unknown format {format!r}")
