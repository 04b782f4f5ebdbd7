"""Golden digests of the verify reports: any change to a report byte fails.

For every named campaign, the grids with base period n <= 143 (about 3000
pairs) run at jobs 1 and at jobs 2, with the same digests; at jobs 2 one
pool serves every campaign, so pool chunks span campaigns.  The CSV is pinned whole; the JSON is pinned
with its "wall_time_s" lines removed, the only field that varies between
runs.  The spec and grid of every named campaign, including the larger
ones not run here, are pinned by one more digest, taken without running
them.  The reports of the two largest grids, theorem6 at p = 283 and
theorem9 at p = 29, are pinned in tests/test_acceptance.py, which runs
them anyway.  A change that alters a report on purpose must re-record
these digests and say why.
"""

import hashlib
import json

import pytest

from seqlc.harness import (
    NAMED_CAMPAIGNS,
    build_family,
    emit_report,
    named_campaigns,
    run_campaigns,
)

MAX_N = 143

# name: (sha256 of the CSV, sha256 of the JSON without wall_time_s lines)
GOLDEN = {
    "theorem5": (
        "73a6b5ceda2e4b546921b1b9759e4b40ca9e02e72786b193a63ba2ffad33a84d",
        "64cb0c5f04912bfe63284d3a63eafdd19da41da58e7af9ed72d65b09194a9e57",
    ),
    "msequence": (
        "0359c2350da38167870cb65dc1dd2152708f66b8dfcd8a2808a1718ca5d99576",
        "7fa429b8ec8e93f6c0b3c26be41177f65fdcfadddf8655d7569ec3f2b04fce1b",
    ),
    "example1": (
        "02cacf359f68674c0c933cc58b56e480c1b544a21e049622f81b4f8b651ca71e",
        "08e430fdc5f1f376d35a0ca6f60bdc6dd3973597a6a549519a1e51dec1cac7f4",
    ),
    "theorem6": (
        "fb83cd8b5d7fe15502d5a21308c3afde5a6961cf682a10dc7c1bdac3152ffe88",
        "8235cd2487c6e0acdf3462f451b74951f38a37a483c5852d08a82187db359fe8",
    ),
    "theorem7": (
        "db6d30119607ac0efa07dac6beb21b1e3ba976b50b5e1da480bc2f5b41148579",
        "451606fb91091845dc4782149c6260485201e9f21c67b7cc1020242797fae32d",
    ),
    "theorem9": (
        "4564957c4840444134e97f07cb76879ac97bbf04c5b7d081b93b9fd6d7e34aca",
        "2b91d0234eaa0ef67e40effe59fe439c0821797ee1fa6be54f6c1ab6db94ceee",
    ),
    "remarks": (
        "ba8e73a9a655294e8d74f97adeaebdbe3f9352d6fac8d1ed967365482c45ff2c",
        "9812072b8d86e47711126c50316b75461ca276d662cba3dc0135e0d7d4d365da",
    ),
    "bound": (
        "2c36652d7cd608b58a35b5182199dd1860f1941b34501f027e958dca4af75378",
        "ce110ba06f70d575372be1ec98c0762f69964b98cdbd0a67baae53df62a20302",
    ),
    "twoadic": (
        "0805174c21aa56c1457cf9eb13ed0a88a250a065e4d97d08cd5304266c2e4f15",
        "1c336d646277cc02dfe3cde8af2cc34027cc96bf8eec03884d42a2390a500090",
    ),
}


# sha256 of the JSON list of [spec.echo(), (r, s) grid] over named_campaigns("all")
SPECS_DIGEST = "bf6d7d0adee5e2837a6511889c45807f6b3e1b30280ece55b102053ec573ec92"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_spec_and_grid_digest():
    specs = named_campaigns("all")
    text = json.dumps([[s.echo(), [(g.r, g.s) for g in s.grid]] for s in specs])
    assert sha256(text) == SPECS_DIGEST


def test_every_named_campaign_is_pinned():
    assert set(GOLDEN) == set(NAMED_CAMPAIGNS)


@pytest.mark.parametrize(
    "name, jobs",
    [
        pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
        for name in sorted(GOLDEN)
        for jobs in (1, 2)
    ],
)
def test_report_digests(name, jobs):
    specs = [
        s
        for s in named_campaigns(name)
        if build_family(s.family_a, s.param, s.variant_a).period <= MAX_N
    ]
    assert specs
    results = run_campaigns(specs, jobs=jobs)
    csv = emit_report(results, "csv")
    json_text = "".join(
        line
        for line in emit_report(results, "json").splitlines(keepends=True)
        if '"wall_time_s":' not in line
    )
    assert (sha256(csv), sha256(json_text)) == GOLDEN[name]
