import __future__
import concurrent.futures
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import time
from collections import Counter
from decimal import Decimal

import pytest

from seqlc import cli, complexity, harness, sequences
from seqlc.cli import main
from seqlc.f2poly import gcd
from seqlc.harness import (
    CSV_HEADER,
    FAMILIES,
    CampaignSpec,
    Expectation,
    build_family,
    emit_report,
    json_to_csv,
    msequence_campaigns,
    named_campaigns,
    read_sequence,
    results_to_csv,
    results_to_json,
    run_campaigns,
    theorem5_campaigns,
    theorem9_campaigns,
)
from seqlc.interleave import tang_ding
from seqlc.numtheory import legendre_symbol
from seqlc.sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    hall_construction,
    is_ideal,
    legendre_seq,
    m_sequence,
    shift,
    twin_prime_seq,
)
from oracles import (
    autocorrelation,
    bits_of,
    complement,
    interleave4,
    is_optimal,
    list_berlekamp_massey,
)


def _must_not_build(*args, **kwargs):
    raise AssertionError("an input above the period ceiling reached a builder")


def at(build, *params):
    """The specs of a named-campaign builder at the given params, in order."""
    return [spec for spec in build() if spec.param in params]


def theorem5_p7():
    return at(theorem5_campaigns, 7)[0]


def report_content(rep):
    """A report's fields as a hashable value, the profile in any order."""
    return frozenset(
        {**vars(rep), "autocorr_values": frozenset(rep.autocorr_values.items())}.items()
    )


def theorem5_p7_payload(point=(), **report):
    """The JSON report of theorem5_p7, its first point and that point's report
    updated."""
    payload = json.loads(results_to_json([run_campaigns([theorem5_p7()])[0]]))
    first = payload["campaigns"][0]["points"][0]
    first.update(point)
    first["report"].update(report)
    return payload


def tang_ding_mutant(step=0, flip=True, swap=False):
    """w(a, b) with m + step in place of m, with or without the complement
    of the last column, and with or without columns 1 and 3 swapped."""
    def build(a, b):
        m = (a.period + 1) // 4 + step
        last = complement(b) if flip else b
        columns = [a, shift(b, m), shift(a, 2 * m), shift(last, 3 * m)]
        if swap:
            columns[1], columns[3] = columns[3], columns[1]
        return interleave4(*columns)
    return build


def z_sets_over_x_n_plus_1(a, b):
    """z_set_sizes with x^n + 1 in place of 1 + x + ... + x^(n-1)."""
    g_sum = gcd(a.mask ^ b.mask, (1 << a.period) | 1)
    return gcd(a.mask, g_sum).bit_length() - 1, g_sum.bit_length() - 1


def profile_wrong_at_tau_1(w):
    """The profile with A(1), and so its mirror A(N - 1), read 4 too low, as a
    kernel that reads the wrong shift at the start of a block would."""
    profile = Counter(sequences.autocorrelation_profile(w))
    a1 = autocorrelation(w, 1)
    profile[a1] -= 2
    profile[a1 - 4] += 2
    return {v: c for v, c in profile.items() if c}


# One wrong function of analyze_pair each, by the name complexity calls it.
# Every one can fail on the paper's inputs; a 2-adic verdict or an is_ideal
# that is always true cannot, as the true verdicts are all true there.
MUTANTS = {
    "tang-ding-m-plus-1": ("tang_ding", tang_ding_mutant(step=1)),
    "tang-ding-no-complement": ("tang_ding", tang_ding_mutant(flip=False)),
    "tang-ding-columns-1-3-swapped": ("tang_ding", tang_ding_mutant(swap=True)),
    "bm-over-n-terms": (
        "lc_berlekamp_massey", lambda w: list_berlekamp_massey(bits_of(w.mask, w.period))
    ),
    "lc-gcd-modulo-x-n": (
        "lc_gcd", lambda w: w.period + 1 - gcd(w.mask, 1 << w.period).bit_length()
    ),
    "z-sets-over-x-n-plus-1": ("z_set_sizes", z_sets_over_x_n_plus_1),
    "two-adic-gcd-with-2-n-plus-1": (
        "two_adic_max", lambda w: math.gcd(w.mask, (1 << w.period) + 1) == 1
    ),
    "profile-wrong-at-tau-1": ("autocorrelation_profile", profile_wrong_at_tau_1),
}


def internal_mutant(module, name, old, new):
    """module's function name compiled from its source with old, which must
    occur exactly once, replaced by new, in a copy of module's namespace."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    code = compile(
        source.replace(old, new), module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[name]


def grid_above_the_halves_cutoff():
    """Hall p = 43 (N = 172, six classes of s) and twin-prime n = 35 (N = 140)."""
    return [s for s in named_campaigns("theorem6") if s.param == 43] + at(theorem9_campaigns, 5)


# One changed line inside a fast path of complexity or sequences each, as
# (module, function, old text, new text, net).  The net is the fixture-free
# test, module::Class::method, that must catch the mutant.  It is a plain
# test: hypothesis fails a method called on two instances of its class
# (HealthCheck.differing_executors), here and then under pytest.  Verify's
# own checks on grid_above_the_halves_cutoff() catch none of them, and the
# test records that.  On paper grids the LC is at most N/2 + 2, below K - 1
# with K = ceil(5N/8), so Berlekamp-Massey's certificate always holds there.
# x is |a| at every shift of any w(a, b), so no constancy test can go wrong
# there, and e is read off a alone, so a key that ignores e errs only where
# one o class meets two bases a.  Wrong room arithmetic gives wrong LCs on
# paper grids only at n <= 31.
INTERNAL_MUTANTS = {
    "bm-cut-without-fallback": (
        complexity, "_lfsr_length", "if room < floor:", "if False:",
        "test_complexity::TestBerlekampMassey::test_matches_list_reference_up_to_period_300",
    ),
    "bm-window-one-bit-short": (
        complexity, "lc_berlekamp_massey", "D >> (N - K), N + K, K",
        "D >> (N - K + 1), N + K - 1, K",
        "test_complexity::TestBerlekampMassey::test_every_sequence_up_to_period_10",
    ),
    "bm-room-is-2d-minus-room": (
        complexity, "_lfsr_length", "2 * d - 2 - room", "2 * d - room",
        "test_complexity::TestBerlekampMassey::test_every_sequence_up_to_period_10",
    ),
    # x[P - 1] = x[0] read as x constant: the shifts P - 1 and P of o' twice.
    "halves-constant-flag-from-the-ends": (
        sequences, "_half_counts",
        "p in _and_histogram(_view_mask(ev), _view_mask(doubled), 0, p)",
        "2 in _and_histogram(_view_mask(ev), _view_mask(doubled), p - 1, p + 1)",
        "test_properties::TestCorrelationKernel::test_halves_of_a_class_whose_x_has_equal_ends",
    ),
    # P - 1 shifts never give one value P times: no class is ever shared.
    "halves-x-from-shift-1": (
        sequences, "_half_counts", "_view_mask(doubled), 0, p)", "_view_mask(doubled), 1, p)",
        "test_harness::TestRunCampaign::test_every_class_of_a_paper_grid_is_shared",
    ),
    "halves-key-ignores-e": (
        sequences, "_half_counts", "key == ev and ov in doubled", "ov in doubled",
        "test_properties::TestCorrelationKernel::test_halves_of_a_shared_class_and_a_new_e",
    ),
}


class TestSequenceIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        a = legendre_seq(11)
        path.write_text(a.to_string() + "\n")
        assert read_sequence(path) == a

    def test_known_content(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("0110100\n")
        assert read_sequence(path) == legendre_seq(7)

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("0110100")
        assert read_sequence(path) == legendre_seq(7)

    def test_parse_error_offset(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("01x\n")
        with pytest.raises(ValueError, match="offset 2"):
            read_sequence(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_sequence(path)


class TestBuildFamily:
    def test_families(self):
        assert build_family("legendre", 7) == legendre_seq(7)
        assert build_family("legendre-prime", 7) == legendre_seq(7, "ell_prime")
        assert build_family("m-sequence", 3) == m_sequence(3)
        assert build_family("m-sequence", 3, "alt") != m_sequence(3)
        assert build_family("m-sequence", 3, "13").period == 7
        assert build_family("hall", 31).weight == 15
        assert build_family("twin-prime", 5).period == 35
        assert build_family("twin-prime-tau", 5) == twin_prime_seq(5, "tau_t")
        # Every family, in the order seqlc gen --help and argparse's "invalid
        # choice" error show.
        assert FAMILIES == (
            "m-sequence", "legendre", "legendre-prime", "hall", "twin-prime",
            "twin-prime-tau",
        )

    @pytest.mark.parametrize(
        "param, variant",
        [
            pytest.param(5, None, id="None"),
            pytest.param(5, "alt", id="alt"),
            # The name is checked before the period ceiling.
            pytest.param(20000, None, id="above-ceiling"),
        ],
    )
    def test_unknown(self, param, variant):
        with pytest.raises(ValueError, match="^unknown family 'fibonacci'$"):
            build_family("fibonacci", param, variant)


class TestRunCampaign:
    def test_profile_cache_is_empty_when_a_run_starts(self, monkeypatch):
        # A run starts as cold as a fresh process, whatever ran before it.
        hall43 = [s for s in named_campaigns("theorem6") if s.param == 43][0]
        run_campaigns([dataclasses.replace(hall43, grid=hall43.grid[:2])])
        assert sequences._HALVES  # N = 172 reads the halves
        sizes = []

        def spy(*args):
            sizes.append(len(sequences._HALVES))
            return complexity.analyze_pair(*args)

        monkeypatch.setattr(harness, "analyze_pair", spy)
        run_campaigns([dataclasses.replace(hall43, grid=hall43.grid[:7])])
        assert sizes == [0, 1, 2, 3, 4, 5, 6]  # six classes, one per s, then a hit
        assert len(sequences._HALVES) == 6

    def test_profile_cache_stays_within_its_bound(self):
        # 18 classes: Hall, Legendre and Legendre-prime a against the six
        # sample classes of the Hall b, at N = 172.
        bound = sequences._HALF_CLASSES
        sequences._HALVES.clear()
        sizes = []
        for spec in named_campaigns("theorem6")[:1] + named_campaigns("theorem7")[::2]:
            a = build_family(spec.family_a, spec.param)
            b = build_family(spec.family_b, spec.param)
            for sigma in spec.grid[:2 * bound]:
                complexity.analyze_pair(a, b, sigma)
                sizes.append(len(sequences._HALVES))
        assert max(sizes) == bound and sizes[-1] == bound
        assert sizes[:7] == [1, 2, 3, 4, 5, 6, 6]

    def test_every_class_of_a_paper_grid_is_shared(self):
        # x is constant on paper grids, so each class's second point marks
        # it shared and every later point copies its counts.
        run_campaigns(grid_above_the_halves_cutoff())
        assert len(sequences._HALVES) == sequences._HALF_CLASSES
        assert all(shared is True for *_, shared in sequences._HALVES)

    def test_theorem5_small(self):
        res = run_campaigns([theorem5_p7()])[0]
        assert res.passed
        assert len(res.points) == 6
        assert [(pt.r, pt.s) for pt in res.points] == [(r, 1) for r in range(1, 7)]
        assert all(pt.report.lc_formula == 16 for pt in res.points)

    def test_two_adic_verdict_asserted_beyond_p127(self):
        # The paper claims 2-adic maximality for every interleaving, so every
        # point asserts the verdict, above the twoadic sweep's n <= 127 too.
        spec = CampaignSpec(
            name="theorem5-p131",
            family_a="legendre",
            family_b="legendre-prime",
            param=131,
            grid=tuple(GroupElement(r, 1) for r in range(1, 131)),
            expectation=Expectation(lc_exact=264),
        )
        res = run_campaigns([spec])[0]
        assert len(res.points) == 130
        assert res.passed, [pt.failures for pt in res.points if not pt.passed][:3]

    def test_empty_expectation_passes_vacuously(self):
        spec = CampaignSpec(
            name="recorded-only",
            family_a="legendre",
            family_b="legendre",
            param=7,
            grid=(GroupElement(1, 1), GroupElement(2, 1)),
            expectation=Expectation(),
        )
        res = run_campaigns([spec])[0]
        assert res.passed
        assert all(pt.report is not None for pt in res.points)

    def test_failing_expectation(self):
        spec = CampaignSpec(
            name="doomed",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(1, 1),),
            expectation=Expectation(lc_exact=99),
        )
        res = run_campaigns([spec])[0]
        assert not res.passed
        assert res.points[0].failures

    def test_per_point_errors_do_not_abort(self):
        # s = 7 collapses to 0 mod 7: not coprime, the point errors out
        spec = CampaignSpec(
            name="partial",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(1, 1), GroupElement(1, 7)),
            expectation=Expectation(lc_exact=16),
        )
        res = run_campaigns([spec])[0]
        assert not res.passed
        good, bad = res.points
        assert good.passed and good.report.lc_formula == 16
        assert bad.error.startswith("ValueError: ") and bad.report is None

    def test_defects_propagate(self, monkeypatch):
        # Only a ValueError marks a rejected point; anything else is a bug.
        def broken(*args):
            raise RuntimeError("defect")

        monkeypatch.setattr(harness, "analyze_pair", broken)
        with pytest.raises(RuntimeError, match="defect"):
            run_campaigns([theorem5_p7()], jobs=1)

    @pytest.mark.parametrize(
        "family_b, bases", [("legendre-prime", 2), ("legendre", 1)]
    )
    def test_one_ideal_check_per_base(self, family_b, bases):
        # is_ideal reads the untransformed b, so every point after the first
        # is answered from the cache whatever its (r, s).
        grid = tuple(GroupElement(r, s) for r in range(7) for s in range(1, 7))
        spec = CampaignSpec(
            name="every-unit",
            family_a="legendre",
            family_b=family_b,
            param=7,
            grid=grid,
            expectation=Expectation(),
        )
        is_ideal.cache_clear()
        run_campaigns([spec], jobs=1)
        info = is_ideal.cache_info()
        assert info.misses == bases
        assert info.hits == 2 * len(grid) - bases

    @pytest.fixture
    def built(self, monkeypatch):
        """The slots build_family is called with, in call order."""
        slots = []

        def recording(*slot):
            slots.append(slot)
            return build_family(*slot)

        monkeypatch.setattr(harness, "build_family", recording)
        return slots

    def test_each_base_slot_is_built_once_per_run(self, built):
        run_campaigns(at(theorem5_campaigns, 7) + at(msequence_campaigns, 3), jobs=1)
        assert built == [
            ("legendre", 7, None), ("legendre-prime", 7, None),
            ("m-sequence", 3, None), ("m-sequence", 3, "alt"),
        ]

    def test_a_bad_slot_raises_at_its_first_spec(self, built):
        good = theorem5_p7()
        bad = dataclasses.replace(good, name="bad", family_b="legendre", param_b=9)
        with pytest.raises(ValueError, match="^9 is not a prime congruent to 3 mod 4$"):
            run_campaigns([good, bad, bad], jobs=1)
        assert built == [("legendre", 7, None), ("legendre-prime", 7, None), ("legendre", 9, None)]

    def test_grid_must_be_nonempty(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                name="empty",
                family_a="legendre",
                family_b="legendre",
                param=7,
                grid=(),
                expectation=Expectation(),
            )

    def test_parallel_equals_serial(self):
        spec = theorem5_p7()
        serial = run_campaigns([spec], jobs=1)[0]
        parallel = run_campaigns([spec], jobs=2)[0]
        assert serial.points == parallel.points
        assert serial.passed == parallel.passed

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        specs = at(theorem5_campaigns, 7, 11)
        parallel = run_campaigns(specs, jobs=2)
        assert len(pools) == 1
        serial = run_campaigns(specs, jobs=1)
        assert [res.spec for res in parallel] == specs
        assert [res.points for res in parallel] == [res.points for res in serial]

    def test_about_four_slices_per_worker(self, monkeypatch):
        submits = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        # 102 points over 12 campaigns: 8-point chunks would make 13 slices.
        specs = theorem5_campaigns() + at(msequence_campaigns, 3, 4)
        jobs = 2
        parallel = run_campaigns(specs, jobs=jobs)
        assert 1 < len(submits) <= 4 * jobs
        serial = run_campaigns(specs, jobs=1)
        assert [res.points for res in parallel] == [res.points for res in serial]

    def test_one_report_object_per_distinct_report(self):
        specs = theorem5_campaigns() + at(msequence_campaigns, 3, 4)
        reports = [pt.report for res in run_campaigns(specs, jobs=1) for pt in res.points]
        distinct = {report_content(rep) for rep in reports}
        assert 1 < len(distinct) < len(reports)
        assert len({id(rep) for rep in reports}) == len(distinct)

    def test_one_report_object_per_distinct_report_per_slice(self):
        specs = theorem5_campaigns() + at(msequence_campaigns, 3, 4)
        jobs = 2
        parallel = run_campaigns(specs, jobs=jobs)
        serial = run_campaigns(specs, jobs=1)
        assert [res.points for res in parallel] == [res.points for res in serial]
        reports = [pt.report for res in parallel for pt in res.points]
        chunk = math.ceil(len(reports) / (4 * jobs))  # run_campaigns' slice length
        objects = set()
        for i in range(0, len(reports), chunk):
            part = reports[i:i + chunk]
            assert len({id(rep) for rep in part}) == len(set(map(report_content, part)))
            objects |= {id(rep) for rep in part}
        assert len(objects) < len(reports)

    def test_jobs1_streams_points(self, monkeypatch):
        # A campaign's wall time covers its own points only if each point
        # reaches the regrouping as soon as it is computed.
        analyze = harness.analyze_pair

        def slow(*args):
            time.sleep(0.002)
            return analyze(*args)

        monkeypatch.setattr(harness, "analyze_pair", slow)
        spec = CampaignSpec(
            name="three",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(1, 1), GroupElement(2, 1), GroupElement(3, 1)),
            expectation=Expectation(),
        )
        again = dataclasses.replace(
            spec, name="again",
            grid=(GroupElement(4, 1), GroupElement(5, 1), GroupElement(6, 1)),
        )
        results = run_campaigns([spec, again], jobs=1)
        assert [len(res.points) for res in results] == [3, 3]
        assert all(res.wall_time_s >= 0.006 for res in results)

    def test_repeated_points_are_analyzed_once(self, monkeypatch):
        calls = []
        analyze = harness.analyze_pair

        def counting(*args):
            calls.append(args)
            return analyze(*args)

        monkeypatch.setattr(harness, "analyze_pair", counting)
        specs = at(theorem5_campaigns, 7)
        first = run_campaigns(specs, jobs=1)
        assert len(calls) == 7
        calls.clear()
        twins = [dataclasses.replace(s, name="twoadic-" + s.name) for s in specs]
        results = run_campaigns(specs + twins, jobs=1)
        assert len(calls) == 7  # the twins make no call
        assert [res.points for res in results] == [res.points for res in first] * 2

    def test_one_report_checked_against_each_repeat(self):
        asserted = CampaignSpec(
            name="asserted",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(1, 1),),
            expectation=Expectation(lc_exact=99),
        )
        recorded = dataclasses.replace(asserted, name="recorded", expectation=Expectation())
        for jobs in (1, 2):
            bad, good = run_campaigns([asserted, recorded], jobs=jobs)
            assert bad.points[0].failures == ("LC 16 != expected 99",)
            assert not bad.passed and good.passed
            assert bad.points[0].report is good.points[0].report

    def test_repeated_construction_error_repeats_its_row(self):
        # s = 7 is not a unit mod 7, here asserted and recorded, twice each.
        spec = CampaignSpec(
            name="rejected",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(1, 7), GroupElement(2, 1)),
            expectation=Expectation(lc_exact=16),
        )
        specs = [spec, dataclasses.replace(spec, name="again", expectation=Expectation())]
        for jobs in (1, 2):
            rows = [res.points[0] for res in run_campaigns(specs * 2, jobs=jobs)]
            assert rows[0].error.startswith("ValueError: ")
            assert rows[0].report is None
            assert rows == [rows[0]] * 4

    def test_parallel_equals_serial_with_repeats(self):
        # Repeats inside a slice, across slices, and of a campaign cut by a slice.
        small = at(theorem5_campaigns, 7, 11) + at(msequence_campaigns, 3)
        specs = (
            small
            + [dataclasses.replace(s, name=s.name + "-again") for s in reversed(small)]
            + at(theorem5_campaigns, 19)
            + [dataclasses.replace(small[2], name="cut", grid=small[2].grid[3:7])]
        )
        serial = run_campaigns(specs, jobs=1)
        parallel = run_campaigns(specs, jobs=2)
        assert [res.spec for res in parallel] == specs
        assert [res.points for res in parallel] == [res.points for res in serial]
        assert [res.points for res in serial] == [
            run_campaigns([spec])[0].points for spec in specs
        ]

    @pytest.mark.parametrize(
        "profile",
        [
            lambda w: dict(Counter(autocorrelation(w, t) for t in range(1, w.period - 1))),
            lambda w: {-4: w.period - 1},
            lambda w: {0: 3 * (w.period // 4) - 1, -4: w.period // 4},
            lambda w: {0: 3 * (w.period // 4) + 3, -4: w.period // 4 - 4},
        ],
        ids=["one-shift-short", "always-optimal", "tau-1-alone-low", "four-moved-to-zero"],
    )
    def test_profile_identities_catch_an_optimal_looking_profile(self, monkeypatch, profile):
        # Each mutant gives only the values 0 and -4, which the expectation
        # accepts, so only the profile's two identities can catch them.
        specs = at(theorem5_campaigns, 7)
        assert all(res.passed for res in run_campaigns(specs, jobs=1))
        monkeypatch.setattr(complexity, "autocorrelation_profile", profile)
        points = [pt for res in run_campaigns(specs, jobs=1) for pt in res.points]
        assert points and not any(pt.passed for pt in points)
        assert all(
            fail.startswith("autocorrelation ") for pt in points for fail in pt.failures
        )

    @pytest.mark.parametrize("name", MUTANTS)
    def test_verify_catches_each_mutant(self, monkeypatch, name):
        # 20 points: Legendre p = 7 and m-sequence l = 3.  The 2-adic mutant
        # fails one of them (123 of the 3016 points with n <= 143), the z-set
        # mutant only the m-sequence ones, and BM over N terms none of the
        # same-polynomial ones.
        specs = at(theorem5_campaigns, 7) + at(msequence_campaigns, 3)
        assert all(res.passed for res in run_campaigns(specs, jobs=1))
        monkeypatch.setattr(complexity, *MUTANTS[name])
        assert any(not pt.passed for res in run_campaigns(specs, jobs=1) for pt in res.points)

    @pytest.mark.parametrize("name", INTERNAL_MUTANTS)
    def test_each_internal_mutant_gets_past_verify_and_meets_its_net(self, monkeypatch, name):
        module, function, old, new, net = INTERNAL_MUTANTS[name]
        specs = grid_above_the_halves_cutoff()
        assert all(res.passed for res in run_campaigns(specs, jobs=1))
        net_module, cls, method = net.split("::")
        net_module = importlib.import_module(net_module)
        original, mutant = getattr(module, function), internal_mutant(module, function, old, new)
        # The net's module may hold the function under its own name.
        for target in (module, net_module):
            if getattr(target, function, None) is original:
                monkeypatch.setattr(target, function, mutant)
        try:
            points = [pt for res in run_campaigns(specs, jobs=1) for pt in res.points]
            assert all(pt.passed for pt in points)
            with pytest.raises(AssertionError):
                getattr(getattr(net_module, cls)(), method)()
        finally:
            sequences.clear_profile_cache()  # no mutant's entry outlives the test

    def test_unknown_family_is_rejected_before_the_pool(self, monkeypatch):
        # Bases are built before the pool starts, and build_family names the family.
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        spec = dataclasses.replace(theorem5_p7(), family_b="fibonacci")
        with pytest.raises(ValueError, match="^unknown family 'fibonacci'$"):
            run_campaigns([theorem5_p7(), spec], jobs=2)

    def test_empty_batch(self):
        assert run_campaigns([], jobs=2) == []
        assert run_campaigns([], jobs=1) == []

    def test_one_point_campaign_in_parallel(self):
        spec = CampaignSpec(
            name="single",
            family_a="legendre",
            family_b="legendre-prime",
            param=7,
            grid=(GroupElement(3, 1),),
            expectation=Expectation(lc_exact=16),
        )
        serial = run_campaigns([spec], jobs=1)[0]
        parallel = run_campaigns([spec], jobs=2)[0]
        assert parallel.passed and parallel.points == serial.points

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_campaigns([theorem5_p7()], jobs=jobs)


class TestEmission:
    def test_csv_shape(self):
        res = run_campaigns([theorem5_p7()])[0]
        text = results_to_csv([res])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7  # header + six data rows
        first = lines[1].split(",")
        assert first[:3] == ["7", "1", "1"]
        assert first[3:6] == ["16", "16", "16"]
        assert first[8:] == ["true", "true"]

    def test_json_round_trip_to_csv(self):
        res = run_campaigns(at(theorem5_campaigns, 7))
        assert json_to_csv(results_to_json(res)) == results_to_csv(res)

    def test_json_parses_back(self):
        res = run_campaigns([theorem5_p7()])[0]
        payload = json.loads(results_to_json([res]))
        camp = payload["campaigns"][0]
        assert camp["spec"]["name"] == "theorem5-p7"
        assert camp["passed"] is True
        pt = camp["points"][0]
        assert pt["report"]["lc_formula"] == 16
        assert pt["report"]["autocorr_values"] == {"0": 21, "-4": 6}

    def test_determinism_modulo_wall_time(self):
        spec = theorem5_p7()
        first = json.loads(results_to_json([run_campaigns([spec])[0]]))
        second = json.loads(results_to_json([run_campaigns([spec])[0]]))
        for payload in (first, second):
            for camp in payload["campaigns"]:
                camp.pop("wall_time_s")
        assert first == second

    @pytest.mark.parametrize(
        "field, value",
        [("attains_max", 1), ("two_adic_max", 1), ("z_ab", False), ("z_sum", False)],
    )
    def test_json_csv_checks_a_repeated_report_at_every_row(self, field, value):
        # Every point of theorem5_p7 has an equal report, with attains_max and
        # two_adic_max true and both z-sets 0.  Each value above equals the
        # one it replaces, and hashes alike, so the last point's lookup would
        # find the first point's text if it came before the type check.
        payload = theorem5_p7_payload()
        points = payload["campaigns"][0]["points"]
        assert all(pt["report"] == points[0]["report"] for pt in points)
        points[-1]["report"][field] = value
        with pytest.raises(ValueError, match="^not a seqlc JSON report$"):
            json_to_csv(json.dumps(payload))

    @pytest.mark.parametrize("field", ["r", "s"])
    def test_results_csv_checks_r_and_s_at_every_row(self, field):
        res = run_campaigns([theorem5_p7()])[0]
        last = dataclasses.replace(res.points[-1], **{field: True})
        res = dataclasses.replace(res, points=res.points[:-1] + (last,))
        with pytest.raises(TypeError):
            results_to_csv([res])

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


class TestNamedCampaigns:
    def test_registry(self):
        for name in (
            "theorem5",
            "msequence",
            "example1",
            "theorem7",
            "remarks",
            "bound",
            "twoadic",
        ):
            specs = named_campaigns(name)
            assert specs and all(isinstance(s, CampaignSpec) for s in specs)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_campaigns("theorem42")

    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            named_campaigns("theorem6", fulls=True)
        with pytest.raises(TypeError):
            named_campaigns("theorem6", full_s=True)
        # The builders state the paper's parameters and take none.
        with pytest.raises(TypeError):
            theorem5_campaigns(ps=(7,))
        with pytest.raises(TypeError):
            theorem9_campaigns(record_complementary=())

    def test_recorded_specs_assert_the_whole_family_claims(self):
        # Outside the LC claim the paper still claims optimal autocorrelation
        # and 2-adic maximality, so a -recorded spec asserts those two.
        recorded = [s for s in named_campaigns("all") if s.name.endswith("recorded")]
        assert len(recorded) == 8
        assert sum(len(s.grid) for s in recorded) == 250
        assert all(s.expectation == Expectation() for s in recorded)

    def test_recorded_point_fails_on_a_false_two_adic_verdict(self, monkeypatch):
        spec = next(s for s in at(theorem5_campaigns, 7) if s.name.endswith("recorded"))
        assert run_campaigns([spec], jobs=1)[0].passed
        monkeypatch.setattr(complexity, "two_adic_max", lambda w: False)
        res = run_campaigns([spec], jobs=1)[0]
        assert not res.passed
        assert res.points[0].failures == ("two_adic_max is False, expected True",)

    def test_recorded_point_fails_on_a_non_optimal_profile(self, monkeypatch):
        # An LC-free campaign still asserts optimal autocorrelation.
        spec = next(s for s in at(theorem5_campaigns, 7) if s.name.endswith("recorded"))
        assert spec.expectation == Expectation()
        # 27 shifts, and -24 + 28 = 4: the profile identities hold.
        monkeypatch.setattr(
            complexity, "autocorrelation_profile", lambda w: {0: 19, -4: 7, 4: 1}
        )
        res = run_campaigns([spec], jobs=1)[0]
        assert not res.passed
        assert res.points[0].failures == ("autocorrelation values outside {0, -4}: [4]",)

    def test_twoadic_sweep_builds_no_base(self, monkeypatch):
        specs = harness.twoadic_campaigns()
        monkeypatch.setattr(harness, "build_family", _must_not_build)
        assert harness.twoadic_campaigns() == specs

    def test_family_period_is_the_built_period(self):
        slots = {
            slot
            for spec in named_campaigns("all")
            for slot in (
                (spec.family_a, spec.param, spec.variant_a),
                (spec.family_b, spec.param_b, spec.variant_b),
            )
        }
        for family, param, variant in slots:
            period = build_family(family, param, variant).period
            assert harness._family_period(family, param) == period, (family, param)

    def test_bound_campaign_is_seed_deterministic(self):
        assert named_campaigns("bound", seed=3) == named_campaigns("bound", seed=3)
        assert named_campaigns("bound", seed=3) != named_campaigns("bound", seed=4)

    @pytest.mark.parametrize("p", [31, 43, 283], ids=["p31", "p43", "p283"])
    def test_hall_grid_point_depends_only_on_the_class_of_s(self, p):
        # Why a Hall grid takes one s per cyclotomic class: every other unit
        # of the class gives the same sequence and the same Legendre symbol.
        h, classes = hall_construction(p)
        reps = {s: min(cls) for cls in classes for s in cls}
        assert sorted(reps) == list(range(1, p))
        assert harness._hall_s_reps(p) == sorted(set(reps.values()))
        for s, rep in reps.items():
            for r in (0, 1):
                assert apply_group(h, GroupElement(r, s)) == apply_group(
                    h, GroupElement(r, rep)
                ), (r, s)
            assert legendre_symbol(s, p) == legendre_symbol(rep, p), s

    def test_bound_pool_size(self):
        specs = named_campaigns("bound")
        assert sum(len(s.grid) for s in specs) >= 200


def captured(call, argv):
    """(exit code or return value, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Each subcommand's positionals, all of them given and valid.
CLI_POSITIONALS = {
    "gen": ["legendre"],
    "autocorr": ["a.txt"],
    "lc": ["a.txt", "b.txt"],
    "interleave": ["a.txt", "b.txt"],
    "verify": ["theorem5"],
    "report": ["r.json"],
}
# argv lists that stop in the parser, with help or an error: per subcommand
# -h, no arguments, a missing positional, an unknown option, an extra
# positional, an abbreviated option without its value; then bad values and
# the top level.
CLI_PARSER_EXITS = [
    argv
    for cmd, pos in CLI_POSITIONALS.items()
    for argv in (
        [cmd, "-h"], [cmd], [cmd, "--out", "o.txt"], [cmd, *pos, "--zzz"],
        [cmd, *pos, "extra"], [cmd, *pos, "--ou"],
    )
] + [
    ["interleave", "a.txt"],
    ["gen", "fibonacci"],
    ["gen", "legendre", "--p", "x"],
    ["verify", "theorem5", "--form", "xml"],
    ["report", "r.json", "--help", "--zzz"],
    [],
    ["-h"],
    ["--help", "gen"],
    ["bogus"],
    ["--out", "o.txt", "gen"],
]
# The argv shapes that TestCli's other tests run; each parses.
CLI_VALID = [
    ["gen", "legendre", "--p", "7"],
    ["gen", "legendre", "--p", "7", "--r", "1"],
    ["gen", "legendre"],
    ["gen", "m-sequence", "--p", "7"],
    ["gen", "legendre", "--p", "7", "--variant", "bogus"],
    ["gen", "m-sequence", "--l", "3", "--variant", "bogus"],
    ["gen", "hall", "--p", "31", "--s", "31"],
    ["gen", "twin-prime", "--p", "137"],
    ["autocorr", "a.txt"],
    ["lc", "a.txt"],
    ["lc", "a.txt", "b.txt"],
    ["interleave", "a.txt", "b.txt", "--out", "w.txt"],
    ["verify", "theorem5", "--p", "8"],
    ["verify", "theorem5", "--p", "7", "--out", "report.json"],
    ["verify", "msequence", "--p", "7", "--l", "3"],
    ["verify", "msequence", "--l", "3", "--format", "csv"],
    ["verify", "all", "--p", "5", "--format", "csv"],
    ["verify", "bound", "--l", "5", "--format", "csv"],
    ["verify", "theorem5", "--p", "7", "--jobs", "0"],
    ["report", "r.json", "--format", "csv"],
    ["report", "r.json", "--format", "csv", "--format", "json"],
]


class TestCli:
    @pytest.mark.parametrize("argv", CLI_PARSER_EXITS, ids=" ".join)
    def test_parser_exit_matches_the_full_parser(self, argv):
        # Byte for byte: main builds one subcommand's parser where it can.
        full = captured(lambda a: cli.build_parser().parse_args(a), argv)
        assert full[0] in (0, 2)  # the full parser exits, with help or an error
        assert captured(main, argv) == full

    @pytest.mark.parametrize("argv", CLI_VALID, ids=" ".join)
    def test_namespace_matches_the_full_parser(self, monkeypatch, argv):
        seen = []
        for cmd in CLI_POSITIONALS:
            monkeypatch.setattr(cli, f"_cmd_{cmd}", lambda args: seen.append(vars(args)) or 0)
        assert main(argv) == 0
        full = vars(cli.build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        (ours,) = seen
        ours.pop("command", None)
        assert ours == full

    def test_a_command_never_builds_the_full_parser(self, monkeypatch, capsys):
        def no_full_parser():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", no_full_parser)
        assert main(["gen", "legendre", "--p", "7"]) == 0
        assert main(["verify", "theorem5", "--p", "7", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("0110100\n" + CSV_HEADER)

    def test_gen_legendre(self, capsys):
        assert main(["gen", "legendre", "--p", "7"]) == 0
        assert capsys.readouterr().out == "0110100\n"

    def test_gen_with_transform(self, capsys):
        assert main(["gen", "legendre", "--p", "7", "--r", "1"]) == 0
        assert capsys.readouterr().out == "1101000\n"

    def test_gen_missing_param(self, capsys):
        assert main(["gen", "legendre"]) == 2
        assert capsys.readouterr().err == "error: legendre needs --p\n"

    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            (["gen", "legendre"], None, None),
            (["gen", "m-sequence", "--p", "7"], None, None),
            (["verify", "theorem5", "--p", "8"], None, None),
            (["gen", "legendre", "--p", "7", "--variant", "bogus"], None, None),
            (["report"], lambda: [], None),
            (["report"], lambda: {"campaigns": 5}, None),
            (["report"], lambda: {"campaigns": [5]}, None),
            (["report"], lambda: theorem5_p7_payload(attains_max=2), None),
            (["report"], lambda: theorem5_p7_payload(attains_max=-1), None),
            (["report"], lambda: theorem5_p7_payload(attains_max=1), None),
            (["report"], lambda: theorem5_p7_payload(two_adic_max=0), None),
            (["report"], lambda: theorem5_p7_payload(n="7\n8,9"), "not a seqlc JSON report"),
            (["report"], lambda: theorem5_p7_payload(lc_bm=1.5), "not a seqlc JSON report"),
            (["report"], lambda: theorem5_p7_payload(z_ab=None), "not a seqlc JSON report"),
            (["report"], lambda: theorem5_p7_payload(lc_direct=True), "not a seqlc JSON report"),
            (
                ["report"],
                lambda: theorem5_p7_payload(point={"r": "1"}),
                "not a seqlc JSON report",
            ),
            (["report", "--format", "json"], "hello", None),
            (["report"], "[" * 200000, "not a seqlc JSON report"),
            (
                ["report"],
                b"\xff\n",
                "'ascii' codec can't decode byte 0xff in position 0: "
                "ordinal not in range(128)",
            ),
            (["report"], "", "Expecting value: line 1 column 1 (char 0)"),
            (
                ["verify", "msequence", "--p", "7", "--l", "3"],
                None,
                "verify takes --p or --l, not both",
            ),
            (
                ["gen", "m-sequence", "--l", "3", "--variant", "bogus"],
                None,
                "m-sequence variant 'bogus' is neither 'alt' nor a decimal encoding",
            ),
            (
                ["gen", "m-sequence", "--l", "4", "--variant", "31"],
                None,
                "characteristic polynomial 31 is not primitive",
            ),
            (
                ["gen", "m-sequence", "--l", "2", "--variant", "alt"],
                None,
                "m-sequence degree 2 has no second primitive polynomial",
            ),
            (
                ["verify", "msequence", "--p", "3"],
                None,
                "campaign msequence has no grid at that parameter",
            ),
            (
                ["gen", "hall", "--p", "31", "--s", "31"],
                None,
                "sample index 31 is not coprime to period 31",
            ),
        ],
        ids=[
            "gen-no-p", "msequence-no-l", "verify-no-grid", "variant-not-msequence",
            "report-list", "report-campaigns-int", "report-campaign-int",
            "report-attains-max-2", "report-attains-max-minus-1",
            "report-attains-max-1", "report-two-adic-max-0", "report-n-newline",
            "report-lc-bm-float", "report-z-ab-null", "report-lc-direct-true",
            "report-point-r-string", "report-json-not-a-report",
            "report-nested-too-deep", "report-non-ascii", "report-empty",
            "verify-p-and-l",
            "msequence-bad-variant", "msequence-not-primitive",
            "msequence-no-alt", "verify-p-on-msequence", "gen-s-not-coprime",
        ],
    )
    def test_bad_input_is_one_line_error(
        self, tmp_path, capsys, argv, payload, message
    ):
        prefix = "error: "
        if payload is not None:  # a text or bytes payload is written as it is
            src = tmp_path / "r.json"
            if isinstance(payload, bytes):
                src.write_bytes(payload)
            else:
                src.write_text(payload if isinstance(payload, str) else json.dumps(payload()))
            argv = [argv[0], str(src), "--format", "csv", *argv[1:]]  # the last --format wins
            prefix += f"{src}: "  # every rejected report names its file
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        if message is not None:
            assert err == f"{prefix}{message}\n"

    @pytest.mark.parametrize(
        "family, flag, param",
        [("m-sequence", "--l", 40), ("legendre", "--p", 16411), ("twin-prime", "--p", 137)],
    )
    def test_period_ceiling_rejects_parameter(
        self, monkeypatch, capsys, family, flag, param
    ):
        for name in ("m_sequence", "legendre_seq", "hall_seq", "twin_prime_seq"):
            monkeypatch.setattr(harness, name, _must_not_build)
        assert main(["gen", family, flag, str(param)]) == 2
        assert capsys.readouterr().err == (
            f"error: {family} parameter {param} gives a period above the ceiling "
            f"{harness.MAX_PERIOD}\n"
        )

    def test_period_ceiling_admits_the_ceiling(self):
        assert harness.MAX_PERIOD > 899  # the largest named base period
        with pytest.raises(ValueError, match="not a prime"):  # 16383 = 3 * 43 * 127
            build_family("legendre", harness.MAX_PERIOD)
        with pytest.raises(ValueError, match="above the ceiling"):
            build_family("legendre", harness.MAX_PERIOD + 1)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"01x\n", "invalid character 'x' at offset 2"),
            (b"01\xc3\xa9\n", "'ascii' codec can't decode byte 0xc3 in position 2: "
             "ordinal not in range(128)"),
            (b"\n", "empty sequence"),
        ],
        ids=["bad-character", "non-ascii", "empty"],
    )
    def test_rejected_sequence_file_is_named(self, tmp_path, capsys, content, message):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("0110100\n")
        bad.write_bytes(content)
        assert main(["lc", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_period_ceiling_rejects_file(self, tmp_path, capsys, monkeypatch):
        at = tmp_path / "at.txt"
        at.write_text("1" * harness.MAX_PERIOD + "\n")
        assert read_sequence(at).period == harness.MAX_PERIOD
        over = tmp_path / "over.txt"
        over.write_text("1" * (harness.MAX_PERIOD + 1))
        monkeypatch.setattr(harness.BinarySeq, "from_string", _must_not_build)
        assert main(["autocorr", str(over)]) == 2
        assert capsys.readouterr().err == (
            f"error: {over}: sequence longer than the period ceiling "
            f"{harness.MAX_PERIOD}\n"
        )

    @pytest.mark.parametrize("period", [8192, 8 * 2047])  # 2^e = 8192 and 8
    def test_lc_of_all_ones_at_the_ceiling(self, tmp_path, capsys, period):
        # All ones is (x^N + 1) / (x + 1): the largest gcd, and a 2-adic gcd of
        # 2^N - 1, whose 4930 digits at N = 16376 exceed str(int)'s default limit.
        path = tmp_path / "ones.txt"
        path.write_text("1" * period + "\n")
        assert period <= harness.MAX_PERIOD
        assert main(["lc", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [f"period {period}", "lc_gcd 1", "lc_berlekamp_massey 1"]
        key, value = lines[3].split()
        assert key == "two_adic_gcd" and Decimal(value) == (1 << period) - 1
        assert len(lines) == 4

    def test_report_ceiling(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "r.json"
        text = results_to_json([run_campaigns([theorem5_p7()])[0]])
        src.write_text(text)
        size = len(text)
        monkeypatch.setattr(cli, "MAX_REPORT_CHARS", size)
        assert main(["report", str(src), "--format", "csv"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_REPORT_CHARS", size - 1)
        sizes = []  # what the reader asks for bounds its memory, not the file

        class Recorder(io.StringIO):
            def read(self, n=-1):
                sizes.append(n)
                return super().read(n)

        monkeypatch.setattr(cli, "open", lambda *a, **k: Recorder(text), raising=False)
        assert main(["report", str(src), "--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: report longer than the ceiling {size - 1} characters\n"
        )
        assert sizes == [size]

    def test_interleave_and_lc(self, tmp_path, capsys):
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        pa.write_text(legendre_seq(7).to_string() + "\n")
        pb.write_text(legendre_seq(7, "ell_prime").to_string() + "\n")
        out = tmp_path / "w.txt"
        assert main(["interleave", str(pa), str(pb), "--out", str(out)]) == 0
        w = read_sequence(out)
        assert w.period == 28

        assert main(["lc", str(pa), str(pb)]) == 0
        assert capsys.readouterr().out == (
            "n 7\nlc_direct 16\nlc_bm 16\nlc_formula 16\nz_ab 0\nz_sum 0\n"
            "attains_max true\ntwo_adic_max true\n"
        )

        assert main(["lc", str(pa)]) == 0
        assert capsys.readouterr().out == (
            "period 7\nlc_gcd 4\nlc_berlekamp_massey 4\ntwo_adic_gcd 1\n"
        )

    def test_autocorr(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(legendre_seq(7).to_string() + "\n")
        assert main(["autocorr", str(path)]) == 0
        text = capsys.readouterr().out
        assert "A = -1: 6 shifts" in text
        assert "ideal: true" in text

    @pytest.mark.parametrize(
        "a",
        [
            legendre_seq(7),
            BinarySeq(legendre_seq(11).mask ^ 1, 11),
            tang_ding(legendre_seq(7), legendre_seq(7, "ell_prime")),
            tang_ding(legendre_seq(43), legendre_seq(43, "ell_prime")),  # N = 172
            BinarySeq(1, 12),
            BinarySeq(0b1101, 5),
        ],
        ids=repr,
    )
    def test_autocorr_verdicts_read_its_one_profile(self, tmp_path, capsys, monkeypatch, a):
        path = tmp_path / "a.txt"
        path.write_text(a.to_string() + "\n")
        profiles = []

        def spy(seq):
            profiles.append(sequences.autocorrelation_profile(seq))
            return profiles[-1]

        monkeypatch.setattr(cli, "autocorrelation_profile", spy)
        assert main(["autocorr", str(path)]) == 0
        (profile,) = profiles
        n = a.period
        lines = [f"period {n}"] + [f"A = {v}: {profile[v]} shifts" for v in sorted(profile)]
        if n % 4 == 3:
            lines.append(f"ideal: {str(is_ideal.__wrapped__(a)).lower()}")
        if n % 4 == 0:
            lines.append(f"optimal: {str(is_optimal(a)).lower()}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_verify_exit_code_and_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "theorem5", "--p", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        names = [c["spec"]["name"] for c in payload["campaigns"]]
        assert "theorem5-p7" in names
        err = capsys.readouterr().err
        assert "pass theorem5-p7" in err

    def test_verify_p_and_l_select_their_own_families(self, capsys):
        # --l keys the m-sequence grids and --p every other grid.
        assert main(["verify", "msequence", "--l", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().err == (
            "pass msequence-l3-same-poly (6 pairs)\n"
            "pass msequence-l3-distinct-poly (7 pairs)\n"
        )
        assert main(["verify", "all", "--p", "5", "--format", "csv"]) == 0
        names = [line.split()[1] for line in capsys.readouterr().err.splitlines()]
        assert names and all("-p5-" in name or "-n35-" in name for name in names)
        assert not any("m-sequence" in name or "msequence" in name for name in names)

    @pytest.mark.parametrize(
        "flag, param, period, selected",
        [("--p", 31, 31, 21), ("--l", 5, 31, 16), ("--p", 7, 7, 12), ("--l", 3, 7, 12)],
    )
    def test_verify_bound_selects_by_either_slot(self, capsys, flag, param, period, selected):
        # A cross-family bound pair answers to the key of either slot; only
        # the pairs of two slots of the other key are left out.
        assert main(["verify", "bound", flag, str(param), "--format", "csv"]) == 0
        names = [line.split()[1] for line in capsys.readouterr().err.splitlines()]
        assert len(names) == selected
        assert all(name.startswith(f"bound-n{period}-") for name in names)

    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
    def test_verify_rejects_jobs_out_of_range(self, capsys, jobs):
        code = main(["verify", "theorem5", "--p", "7", "--jobs", str(jobs)])
        assert code == 2
        cpus = os.cpu_count() or 1
        assert capsys.readouterr().err == (
            f"error: --jobs must be between 1 and {cpus}\n"
        )

    def test_verify_csv_format(self, capsys):
        code = main(["verify", "theorem5", "--p", "7", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)

    def test_report_conversion(self, tmp_path, capsys):
        src = tmp_path / "r.json"
        res = run_campaigns([theorem5_p7()])[0]
        src.write_text(results_to_json([res]))
        assert main(["report", str(src), "--format", "csv"]) == 0
        assert capsys.readouterr().out == results_to_csv([res])

    @pytest.mark.parametrize(
        "payload, key",
        [
            (None, "s"),
            ({}, "campaigns"),
            ({"campaigns": [{"points": [{"r": 1, "s": 1}]}]}, "report"),
        ],
        ids=["s", "campaigns", "report"],
    )
    def test_report_missing_field_is_one_line_error(
        self, tmp_path, capsys, payload, key
    ):
        if payload is None:  # a full report whose third point lacks "s"
            payload = theorem5_p7_payload()
            del payload["campaigns"][0]["points"][2]["s"]
        src = tmp_path / "r.json"
        src.write_text(json.dumps(payload))
        assert main(["report", str(src), "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{key}'" in err

    def test_bad_file_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("01x\n")
        assert main(["lc", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
