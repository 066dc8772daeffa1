"""Command line interface.

Output is deterministic byte for byte for a given command line.  Table
commands emit one JSON object per line by default and tab-separated rows
with --format tsv.  Arithmetic values are rendered as decimal strings (and
rationals as "numerator/denominator") so nothing is ever rounded.

Exit codes: 0 success, 1 failed verification or broken internal invariant,
2 usage error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BoundExceededError, InvariantError
from .exponential import coefficient_rows
from .omega import _omega_values, omega_factorization
from .orders import factor_mersenne, order_record, pi_m
from .verify import run_verification

USAGE_ERROR = 2
BOUND_ERROR = 3
INVARIANT_ERROR = 1


def _integer_at_least(least: int, kind: str):
    """An argparse type for integers >= least; every refusal names what it got."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            pass
        else:
            if value >= least:
                return value
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")

    return parse


_positive = _integer_at_least(1, "positive")
_nonnegative = _integer_at_least(0, "nonnegative")


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _factor_string(factors: dict[int, int]) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors.items())


def _cmd_omega(args: argparse.Namespace) -> int:
    for n, value in enumerate(_omega_values(args.max), 1):
        factors = omega_factorization(n) if args.factor else None
        if args.format == "tsv":
            row = f"{n}\t{value}"
            if factors is not None:
                row += f"\t{_factor_string(factors)}"
            print(row)
        else:
            record: dict = {"n": n, "omega": str(value)}
            if factors is not None:
                record["factorization"] = {str(p): e for p, e in factors.items()}
            print(_dumps(record))
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    record = order_record(args.p)
    print(_dumps({field: str(getattr(record, field)) for field in args.fields}))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    factors = factor_mersenne(args.n)
    print(_dumps({str(p): e for p, e in factors.items()}))
    return 0


def _cmd_pim(args: argparse.Namespace) -> int:
    # the definitional count uses orders <= x - 1; the example convention
    # uses orders <= x, which is the definitional count at x + 1
    x = args.x if args.convention == "definition" else args.x + 1
    count, primes = pi_m(x)
    print(
        _dumps(
            {
                "x": args.x,
                "convention": args.convention,
                "count": count,
                "primes": [str(p) for p in primes],
            }
        )
    )
    return 0


def _cmd_exp_coeffs(args: argparse.Namespace) -> int:
    rows = coefficient_rows(args.degree)
    if args.format == "tsv":
        print("tree_key\tdegree\ta_numerator\ta_denominator\ta_hat")
        for key, degree, num, den, hat in rows:
            print(f"{key}\t{degree}\t{num}\t{den}\t{hat}")
    else:
        for key, degree, num, den, hat in rows:
            print(
                _dumps(
                    {
                        "tree_key": key,
                        "degree": degree,
                        "a": f"{num}/{den}",
                        "a_hat": str(hat),
                    }
                )
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.degree)
    for result in results:
        print(f"{result.name}: {'pass' if result.passed else 'FAIL'}")
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        print(
            _dumps({"identity": first.name, "counterexample": first.detail}),
            file=sys.stderr,
        )
        return INVARIANT_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magmaexp",
        description="Exact Mersenne combinatorics and the magma exponential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="table of omega(n) for n = 1..max")
    p_omega.add_argument("--max", type=_positive, required=True)
    p_omega.add_argument("--factor", action="store_true",
                         help="include the prime factorization of each value")
    p_omega.add_argument("--format", choices=("json", "tsv"), default="json")
    p_omega.set_defaults(handler=_cmd_omega)

    p_mersenne = sub.add_parser("mersenne", help="orders, Wieferich data, factorizations")
    mersenne_sub = p_mersenne.add_subparsers(dest="subcommand", required=True)

    p_order = mersenne_sub.add_parser("order", help="order of 2 modulo an odd prime")
    p_order.add_argument("p", type=_positive)
    p_order.set_defaults(handler=_cmd_order, fields=("p", "order"))

    p_wief = mersenne_sub.add_parser("wieferich", help="order and Wieferich exponent")
    p_wief.add_argument("p", type=_positive)
    p_wief.set_defaults(handler=_cmd_order, fields=("p", "order", "wieferich_exponent"))

    p_factor = mersenne_sub.add_parser("factor", help="factor 2**n - 1 completely")
    p_factor.add_argument("n", type=_positive)
    p_factor.set_defaults(handler=_cmd_factor)

    p_pim = mersenne_sub.add_parser("pim", help="count odd primes by order threshold")
    p_pim.add_argument("x", type=_positive)
    p_pim.add_argument(
        "--convention",
        choices=("definition", "example"),
        default="example",
        help="definition counts orders <= x-1; example counts orders <= x "
        "(two conventions are in circulation; the default matches the "
        "worked value pim(16) = 15)",
    )
    p_pim.set_defaults(handler=_cmd_pim)

    p_exp = sub.add_parser("exp", help="exponential series coefficients")
    exp_sub = p_exp.add_subparsers(dest="subcommand", required=True)
    p_coeffs = exp_sub.add_parser("coeffs", help="coefficient table for one degree")
    p_coeffs.add_argument("--degree", type=_positive, required=True)
    p_coeffs.add_argument("--format", choices=("json", "tsv"), default="json")
    p_coeffs.set_defaults(handler=_cmd_exp_coeffs)

    p_verify = sub.add_parser("verify", help="run all identity checks up to a degree")
    p_verify.add_argument("--degree", type=_nonnegative, required=True)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values outgrow CPython's int-to-str digit limit (omega(175) has
    # 4,317 digits); it is lifted only after argv is parsed, so command-line
    # integers still parse under it.  Python 3.10.0-3.10.6 have no limit.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BOUND_ERROR
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
