"""Command-line interface.

Subcommands:

* gen         emit one period of a named sequence family
* autocorr    autocorrelation profile of a sequence file
* lc          linear complexity of a sequence file (or of the interleaving
              of two files, cross-checked three ways)
* interleave  build the period-4n interleaving of two sequence files
* verify      run named verification campaigns and report pass/fail
* report      convert an emitted JSON report to CSV (or re-emit it, checked)

Exit status: 0 when every point of every campaign holds its claims (its
campaign's LC claim, if any, optimal autocorrelation and 2-adic
maximality), 1 when one fails (verify), 2 when an input is rejected; a
rejected input prints one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .complexity import (
    analyze_pair,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_gcd,
)
from .harness import (
    CSV_HEADER,
    NAMED_CAMPAIGNS,
    build_family,
    emit_report,
    read_sequence,
    run_campaigns,
)
from .interleave import is_optimal, tang_ding
from .sequences import (
    GroupElement,
    apply_group,
    autocorrelation_profile,
    is_ideal,
)

# Longest input `report` reads, in characters.  Earlier versions' `--full-s`
# option wrote reports of up to about 45 MB, which this still admits.
MAX_REPORT_CHARS = 2**26


def _out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _family_param(args) -> int:
    if args.family == "m-sequence":
        if args.l is None:
            raise ValueError("m-sequence needs --l")
        return args.l
    if args.p is None:
        raise ValueError(f"{args.family} needs --p")
    return args.p


def _cmd_gen(args) -> int:
    base = build_family(args.family, _family_param(args), args.variant)
    seq = apply_group(base, GroupElement(args.r, args.s))
    _out(seq.to_string() + "\n", args.out)
    return 0


def _cmd_autocorr(args) -> int:
    seq = read_sequence(args.sequence)
    profile = autocorrelation_profile(seq)
    n = seq.period
    lines = [f"period {n}"]
    for v in sorted(profile):
        lines.append(f"A = {v}: {profile[v]} shifts")
    if n % 4 == 3:
        lines.append(f"ideal: {str(is_ideal(seq)).lower()}")
    if n % 4 == 0:
        lines.append(f"optimal: {str(is_optimal(seq)).lower()}")
    _out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_lc(args) -> int:
    a = read_sequence(args.sequence)
    if args.pair is None:
        lines = [
            f"period {a.period}",
            f"lc_gcd {lc_gcd(a)}",
            f"lc_berlekamp_massey {lc_berlekamp_massey(a)}",
            f"two_adic_gcd {two_adic_gcd(a)}",
        ]
        _out("\n".join(lines) + "\n", args.out)
        return 0
    b = read_sequence(args.pair)
    report = analyze_pair(a, b)
    # The CSV row's fields without the group element (r, s), one per line.
    lines = [
        f"{key} {str(getattr(report, key)).lower()}"
        for key in CSV_HEADER.split(",")
        if key not in ("r", "s")
    ]
    _out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_interleave(args) -> int:
    a = read_sequence(args.sequence_a)
    b = read_sequence(args.sequence_b)
    _out(tang_ding(a, b).to_string() + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.p is not None and args.l is not None:
        raise ValueError("verify takes --p or --l, not both")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and {cpus}")
    specs = harness.named_campaigns(args.campaign, seed=args.seed)
    if args.p is not None or args.l is not None:
        # --l keys the m-sequence grids and --p the others, as in gen.
        specs = [
            s for s in specs
            if s.param == (args.l if s.family_a == "m-sequence" else args.p)
        ]
        if not specs:
            raise ValueError(f"campaign {args.campaign} has no grid at that parameter")
    results = run_campaigns(specs, jobs=args.jobs)
    text = emit_report(results, args.format)
    _out(text, args.out)
    failed = [res for res in results if not res.passed]
    for res in results:
        n_pts = len(res.points)
        status = "pass" if res.passed else "FAIL"
        sys.stderr.write(f"{status} {res.spec.name} ({n_pts} pairs)\n")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        text = fh.read(MAX_REPORT_CHARS + 1)  # one too many tells a longer file
    if len(text) > MAX_REPORT_CHARS:
        raise ValueError(
            f"{args.input}: report longer than the ceiling {MAX_REPORT_CHARS} characters"
        )
    csv = harness.json_to_csv(text)  # rejects a non-report in either format
    _out(csv if args.format == "csv" else text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlc",
        description=(
            "Binary sequences with ideal autocorrelation: interleaving, "
            "linear complexity, 2-adic maximality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit one period of a sequence family")
    p_gen.add_argument("family", choices=harness.FAMILIES)
    p_gen.add_argument("--p", type=int, help="prime parameter")
    p_gen.add_argument("--l", type=int, help="LFSR degree (m-sequence)")
    p_gen.add_argument("--r", type=int, default=0, help="shift to apply")
    p_gen.add_argument("--s", type=int, default=1, help="sample index to apply")
    p_gen.add_argument("--variant", help="m-sequence polynomial ('alt' or an encoding)")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_ac = sub.add_parser("autocorr", help="autocorrelation profile of a file")
    p_ac.add_argument("sequence")
    p_ac.add_argument("--out")
    p_ac.set_defaults(func=_cmd_autocorr)

    p_lc = sub.add_parser("lc", help="linear complexity of a file (or a pair)")
    p_lc.add_argument("sequence")
    p_lc.add_argument("pair", nargs="?", help="second file: analyze w(a, b)")
    p_lc.add_argument("--out")
    p_lc.set_defaults(func=_cmd_lc)

    p_il = sub.add_parser("interleave", help="build w(a, b) from two files")
    p_il.add_argument("sequence_a")
    p_il.add_argument("sequence_b")
    p_il.add_argument("--out")
    p_il.set_defaults(func=_cmd_interleave)

    p_vf = sub.add_parser("verify", help="run named verification campaigns")
    p_vf.add_argument(
        "campaign", choices=tuple(NAMED_CAMPAIGNS) + ("all",)
    )
    p_vf.add_argument("--p", type=int, help="restrict to one prime parameter")
    p_vf.add_argument("--l", type=int, help="restrict to one m-sequence degree")
    p_vf.add_argument("--format", choices=("json", "csv"), default="json")
    p_vf.add_argument("--out")
    p_vf.add_argument("--seed", type=int, default=harness.BOUND_SEED,
                      help="seed for the randomized consistency sweep")
    p_vf.add_argument("--jobs", type=int, default=1,
                      help="processes in the run's one pool (1 to the CPU count)")
    p_vf.set_defaults(func=_cmd_verify)

    p_rp = sub.add_parser("report", help="convert an emitted JSON report")
    p_rp.add_argument("input")
    p_rp.add_argument("--format", choices=("json", "csv"), default="csv")
    p_rp.add_argument("--out")
    p_rp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
