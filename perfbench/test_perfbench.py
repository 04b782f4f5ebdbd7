"""Self-tests of the benchmark: inputs, metric names, checks and the replay."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from run import ROOT, use_checkout_source

use_checkout_source()

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from seqlc import analyze_pair, apply_group, harness, legendre_seq  # noqa: E402
from seqlc.sequences import GroupElement  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["twin899", "hall283-jobs2", "small-jobs2"])
def test_campaign_inputs_depend_only_on_the_seed(workload):
    one, two = wl.campaign_inputs(workload, 7), wl.campaign_inputs(workload, 7)
    assert [one.batch(i) for i in range(3)] == [two.batch(i) for i in range(3)]
    other = wl.campaign_inputs(workload, 8)
    assert one.batch(0) != other.batch(0)


def test_cli_series_depends_only_on_the_seed():
    assert wl.cli_series(3) == wl.cli_series(3)
    assert wl.cli_series(3) != wl.cli_series(4)
    assert wl.cli_series(3) == wl.cli_series(3 + wl.VARIANTS)


def test_batches_wrap_around_the_grid():
    inputs = wl.campaign_inputs("hall283-jobs2", 1)
    size = len(inputs.specs[0].grid)
    seen = set()
    for i in range(-(-size // inputs.per_campaign)):
        seen.update(inputs.batch(i)[0].grid)
    assert seen == set(inputs.specs[0].grid)


def test_metric_names_and_counts(bench):
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert len(e2e) <= 16 and len(layer) <= 128
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert tuple(e2e) == wl.END_TO_END
    assert tuple(layer) == wl.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == wl.WORKLOADS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_traced_replay_equals_analyze_pair():
    a, b = legendre_seq(19, "ell"), legendre_seq(19, "ell_prime")
    sigma = GroupElement(3, 2)
    tr = Tracer()
    with tr.span("pair", key="p19"):
        got = wl.replay_pair(tr, a, b, sigma)
    assert got == analyze_pair(a, apply_group(b, sigma))
    assert {s[0] for s in tr.spans} == {"pair", *wl.STAGES}
    assert all(s[4] == "p19" for s in tr.spans)
    assert tr.children_by_parent("pair")[0].keys() == set(wl.STAGES)


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        tr.call("inner", sum, range(1000))
    outer, inner = tr.spans[0], tr.spans[1]
    own = tr.self_times()
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert inner[3] == 0 and outer[3] == -1


def test_reference_rows_round_trip_and_catch_a_changed_row():
    specs = [s for s in harness.named_campaigns("theorem5") if s.param == 7]
    results = harness.run_campaigns(specs)
    reference = {"rows": wl.encode_rows(results)}
    expected = wl.reference_rows(reference, specs)
    text, csv, round_trip = wl.emit_all(results)
    assert wl.check_campaign_batch(expected, results, csv, round_trip) == 0
    changed = csv.replace(",16,16,16,", ",16,16,15,", 1)
    assert changed != csv
    with pytest.raises(wl.CheckFailed):
        wl.check_campaign_batch(expected, results, changed, changed)
    with pytest.raises(wl.CheckFailed):
        wl.check_campaign_batch("0" * 64, results, csv, round_trip)


def test_recorded_reference_covers_every_variant():
    reference = wl.load_reference(ROOT / "perfbench" / "reference.json")
    assert len(reference["small-jobs2"]) == len(reference["cli-files"]) == wl.VARIANTS
    for workload in ("twin899", "hall283-jobs2"):
        specs = wl.campaign_inputs(workload, 0).specs
        rows = wl.reference_rows(reference, specs)
        assert len(rows) == sum(len(s.grid) for s in specs)


def test_failed_pairs_are_counted():
    spec = dataclasses.replace(
        harness.named_campaigns("theorem5")[0],
        expectation=harness.Expectation(lc_exact=1),
    )
    results = harness.run_campaigns([spec])
    reference = {"rows": wl.encode_rows(results)}
    _, csv, round_trip = wl.emit_all(results)
    expected = wl.reference_rows(reference, [spec])
    assert wl.check_campaign_batch(expected, results, csv, round_trip) == len(spec.grid)
