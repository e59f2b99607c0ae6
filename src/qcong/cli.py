"""Command-line front end.

Subcommands: expand, metadata, sturm, verify, suite, cache.  Reports are
JSON; coefficient dumps are the qseries text format or CSV.  Exit codes:
0 pass, 1 claim failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import diamond
from .eta import EtaQuotient, eta_quotient_series
from .forms import FORM_NAMES, resolve_form
from .operators import apply_operator
from .qseries import dumps
from .store import Cache, default_cache
from .sturm import ClaimReport, eta_quotient_metadata, sturm_bound


_NO_CACHE_HELP = "read and write no cache file; each input is still built once, in memory"


def _integer(text: str) -> int:
    # ASCII digits after at most one "-", as for a claim's :p= and
    # delta_k:<k>; int() would also take "1_3", " 3", "+3" or "٣"
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="exact q-series expansions and congruence verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a named form or eta quotient")
    src = p_expand.add_mutually_exclusive_group(required=True)
    src.add_argument("--form", help=f"named form, one of: {', '.join(FORM_NAMES)}")
    src.add_argument("--eta", help='eta quotient text, e.g. "3^4 6^6"')
    p_expand.add_argument("--T", type=_integer, required=True, help="truncation")
    p_expand.add_argument("--mod", type=_integer, help="reduce coefficients mod m")
    p_expand.add_argument(
        "--format", choices=("qseries", "csv"), default="qseries", dest="fmt"
    )
    p_expand.add_argument("--out", help="write to this file instead of stdout")
    p_expand.add_argument(
        "--apply",
        help="comma-separated operator pipeline, e.g. U_7,twist_7 (T_p also "
        "needs --weight and --chi)",
    )
    p_expand.add_argument("--weight", type=_integer, help="weight for T_p in --apply")
    p_expand.add_argument("--chi", type=_integer, help="character discriminant for T_p")

    p_meta = sub.add_parser("metadata", help="weight/level/character of a quotient")
    p_meta.add_argument("eta", help='eta quotient text, e.g. "3^4 6^6"')

    p_sturm = sub.add_parser("sturm", help="Sturm bound for (weight, level)")
    p_sturm.add_argument("--k", type=_integer, required=True)
    p_sturm.add_argument("--N", type=_integer, required=True)

    p_verify = sub.add_parser("verify", help="verify one claim")
    ids = [b + ("[:p=P]" if c.for_prime else "") for b, c in diamond.CLAIMS.items()]
    p_verify.add_argument("claim", help=f"claim ID: {', '.join(ids)}")
    p_verify.add_argument("--T", type=_integer, help="depth override (n_max for thm-1.1)")
    p_verify.add_argument("--no-cache", action="store_true", help=_NO_CACHE_HELP)

    p_suite = sub.add_parser("suite", help="run every claim")
    depth = p_suite.add_mutually_exclusive_group(required=True)
    depth.add_argument("--quick", action="store_true")
    depth.add_argument("--full", action="store_true")
    p_suite.add_argument("--no-cache", action="store_true", help=_NO_CACHE_HELP)

    p_cache = sub.add_parser("cache", help="cache maintenance")
    p_cache.add_argument("action", choices=("clear",))
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def _format_exponent(offset24: int, index: int) -> str:
    e = Fraction(offset24, 24) + index
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def _cmd_expand(args) -> int:
    if args.eta is not None:
        series = eta_quotient_series(EtaQuotient.parse(args.eta), args.T, args.mod)
    else:
        series = resolve_form(args.form, args.T, args.mod)
    if args.apply:
        for op in args.apply.split(","):
            series = apply_operator(series.to_offset_zero(), op, args.weight, args.chi)
    if args.fmt == "csv":
        # every coefficient is an int, so no cell needs quoting
        off = series.offset24
        rows = (f"{_format_exponent(off, j)},{c}\n" for j, c in enumerate(series.coeffs))
        text = "n,coefficient\n" + "".join(rows)
    else:
        text = dumps(series)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metadata(args) -> int:
    e = EtaQuotient.parse(args.eta)
    space = eta_quotient_metadata(e)
    inv_sum = sum((space.level // d) * r for d, r in e.factors)
    payload = {
        "weight": space.weight,
        "level": space.level,
        "character": space.character,
        "sum_dr_divisible": e.offset24 % 24 == 0,
        "sum_inv_divisible": inv_sum % 24 == 0,
    }
    print(json.dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    # the whole ID first, so that a CLAIMS key may contain ":"; a :p=
    # suffix is split off only when it misses
    base, p = args.claim, None
    claim = diamond.CLAIMS.get(base)
    if claim is None:
        base, colon, suffix = args.claim.partition(":")
        if colon:
            if not suffix.startswith("p="):
                raise ValueError(f"bad claim suffix {suffix!r}; expected p=<prime>")
            digits = suffix[2:]
            # ASCII digits only: int() would also take "1_3", " 13" or "١٣"
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad claim {args.claim!r}: expected {base}:p=<prime>")
            p = int(digits)
        claim = diamond.CLAIMS.get(base)
    if claim is None:
        raise ValueError(f"unknown claim {args.claim!r}")
    if claim.for_prime and p is None:
        raise ValueError(f"{base} needs a prime: use {base}:p=<p>")
    if not claim.for_prime and p is not None:
        raise ValueError(f"{base} takes no prime, got p={p}")
    config = diamond.SuiteConfig()
    changes = {claim.depth: args.T}
    if p is not None:
        changes.update(claim.for_prime(config, p, args.T))
    # only an absent flag keeps the default
    config = config._replace(**{f: v for f, v in changes.items() if f and v is not None})
    cache = Cache(None) if args.no_cache else default_cache()
    reports = claim.run(config, cache)
    _print_reports(reports)
    return 0 if all(r.passed for r in reports) else 1


def _print_reports(reports: list[ClaimReport]) -> None:
    if len(reports) == 1:
        print(reports[0].to_json())
    else:
        print(json.dumps([r.to_dict() for r in reports]))


def _cmd_suite(args) -> int:
    config = diamond.SuiteConfig.quick() if args.quick else diamond.SuiteConfig()
    cache = Cache(None) if args.no_cache else default_cache()
    reports = diamond.run_suite(config, cache=cache)
    passed = all(r.passed for r in reports)
    print(
        json.dumps(
            {"pass": passed, "claims": [r.to_dict() for r in reports]}
        )
    )
    if not passed:
        failing = [r.claim for r in reports if not r.passed]
        print(f"failing claims: {', '.join(failing)}", file=sys.stderr)
    return 0 if passed else 1


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        # through the subcommand's parser, so that the usage line is its own
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "metadata":
            return _cmd_metadata(args)
        if args.command == "sturm":
            print(sturm_bound(args.k, args.N))
            return 0
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "cache":
            removed = default_cache().clear()
            print(json.dumps({"removed": removed}))
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
