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
from .complexity import analyze_pair, lc_berlekamp_massey, lc_gcd, two_adic_gcd
from .harness import (
    CSV_REPORT_FIELDS, NAMED_CAMPAIGNS, build_family, emit_report, read_sequence,
    run_campaigns,
)
from .interleave import tang_ding
from .sequences import GroupElement, apply_group, autocorrelation_profile

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
        lines.append(f"ideal: {str(profile == {-1: n - 1}).lower()}")
    if n % 4 == 0:
        lines.append(f"optimal: {str(set(profile) <= {0, -4}).lower()}")
    _out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_lc(args) -> int:
    a = read_sequence(args.sequence)
    if args.pair is None:
        # The 2-adic gcd reaches 2^N - 1, 4932 digits at N = MAX_PERIOD, past
        # the 4300 that str(int) allows by default; Decimal has no such limit.
        from decimal import Decimal

        lines = [
            f"period {a.period}",
            f"lc_gcd {lc_gcd(a)}",
            f"lc_berlekamp_massey {lc_berlekamp_massey(a)}",
            f"two_adic_gcd {Decimal(two_adic_gcd(a))}",
        ]
        _out("\n".join(lines) + "\n", args.out)
        return 0
    b = read_sequence(args.pair)
    report = analyze_pair(a, b)
    lines = [f"{key} {str(getattr(report, key)).lower()}" for key in CSV_REPORT_FIELDS]
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
        # --l keys the m-sequence slots and --p the others, as in gen; a spec
        # is selected by either of its two slots.
        specs = [
            s for s in specs
            if any(
                param == (args.l if family == "m-sequence" else args.p)
                for family, param in ((s.family_a, s.param), (s.family_b, s.param_b))
            )
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
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read(MAX_REPORT_CHARS + 1)  # one too many tells a longer file
        if len(text) > MAX_REPORT_CHARS:
            raise ValueError(f"report longer than the ceiling {MAX_REPORT_CHARS} characters")
        csv = harness.json_to_csv(text)  # rejects a non-report in either format
    except ValueError as exc:  # a bad byte too: UnicodeDecodeError is one
        raise ValueError(f"{args.input}: {exc}") from None
    _out(csv if args.format == "csv" else text, args.out)
    return 0


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=harness.FAMILIES)
    p.add_argument("--p", type=int, help="prime parameter")
    p.add_argument("--l", type=int, help="LFSR degree (m-sequence)")
    p.add_argument("--r", type=int, default=0, help="shift to apply")
    p.add_argument("--s", type=int, default=1, help="sample index to apply")
    p.add_argument("--variant", help="m-sequence polynomial ('alt' or an encoding)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)


def _autocorr_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sequence")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_autocorr)


def _lc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sequence")
    p.add_argument("pair", nargs="?", help="second file: analyze w(a, b)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lc)


def _interleave_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sequence_a")
    p.add_argument("sequence_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_interleave)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("campaign", choices=(*NAMED_CAMPAIGNS, "all"))
    p.add_argument("--p", type=int, help="restrict to one prime parameter")
    p.add_argument("--l", type=int, help="restrict to one m-sequence degree")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=harness.BOUND_SEED,
                   help="seed for the randomized consistency sweep")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes in the run's one pool (1 to the CPU count)")
    p.set_defaults(func=_cmd_verify)


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)


# Each subcommand's help line and the function that adds its arguments.
_COMMANDS = {
    "gen": ("emit one period of a sequence family", _gen_args),
    "autocorr": ("autocorrelation profile of a file", _autocorr_args),
    "lc": ("linear complexity of a file (or a pair)", _lc_args),
    "interleave": ("build w(a, b) from two files", _interleave_args),
    "verify": ("run named verification campaigns", _verify_args),
    "report": ("convert an emitted JSON report", _report_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqlc", description=(
        "Binary sequences with ideal autocorrelation: interleaving, "
        "linear complexity, 2-adic maximality."
    ))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = extras = None
    if argv and argv[0] in _COMMANDS:
        # Only argv[0]'s parser, under the prog the full one gives it; the
        # full parser is built only to print top-level help or an error.
        parser = argparse.ArgumentParser(prog=f"seqlc {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
    if args is None or extras:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
