"""The benchmark's four workloads: seeded inputs, timed ops and exactness gates.

Each workload is a closed loop with one client in one process.  A workload
function takes a `random.Random` built from the seed, a `small` flag for the
smoke mode and the tracer (or None), does its set-up, and returns an endless
iterator of batches.  A batch is a list of ops that the runner only ever
runs whole.  An op has a label, `run()`, which is timed, and
`check(result)`, the exactness gate, which runs after the timer stops and
returns None or the reason the answer is wrong.

The functions of `magmaexp` are always looked up on their module at call
time, so that a traced run sees them wrapped.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import count, repeat
from math import factorial
from pathlib import Path
from typing import Callable, NamedTuple

from magmaexp import exponential, orders, primes, series, trees, verify

# the package's own names `mersenne` and `omega` are functions, not the modules
mersenne = importlib.import_module("magmaexp.mersenne")
omega = importlib.import_module("magmaexp.omega")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench-out"  # results records and span files
# sha256 of the exact output; see digests.json for how it was made
DIGESTS = json.loads((HERE / "digests.json").read_text())


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


class CliError(Exception):
    """A command of the command line exited with a code other than 0."""


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# -- exp-verify ---------------------------------------------------------------

VERIFY_CHECKS = 7


def exp_verify(rng, small, tracer):
    """One run_verification per op; the seed plays no part, the degree is fixed."""
    degree = 4 if small else 10
    verify.run_verification(2)  # warm-up: every check runs once
    return repeat([Op(f"run_verification({degree})",
                      lambda: verify.run_verification(degree), _check_verification)])


def _check_verification(results):
    if len(results) != VERIFY_CHECKS:
        return f"expected {VERIFY_CHECKS} checks, got {len(results)}"
    failed = [r.name for r in results if not r.passed]
    return f"checks failed: {failed}" if failed else None


# -- series-io ----------------------------------------------------------------

# (truncation, number of terms) of each seeded random series; they share one
# shape, so the median op is one of many of a kind and no seed moves it
RANDOM_SHAPES = ((11, 1000),) * 8
SMALL_RANDOM_SHAPES = ((4, 8),) * 2


def series_io(rng, small, tracer):
    """to_text then from_text of exp_series(11) and of sparse random series.

    A batch is every input once, in seeded order.  The first output of each
    input becomes its reference once it passes the gate: that of exp_series
    is checked against its digest, which fixes the order, and that of a
    random series line by line against its terms.  Later outputs must equal
    the reference byte for byte.  The gate runs after the op's timer stops,
    so set-up times only the making of the inputs.
    """
    top = 4 if small else 11
    inputs = [(f"exp_series({top})", exponential.exp_series(top), None)]
    for i, (truncation, size) in enumerate(SMALL_RANDOM_SHAPES if small else RANDOM_SHAPES):
        terms = random_terms(rng, truncation, size)
        inputs.append((f"random {i} (N={truncation}, terms={size})",
                       series.TreeSeries(truncation, terms), (truncation, terms)))
    ops = []
    for label, s, terms in inputs:
        reference: dict = {}
        ops.append(Op(label, lambda s=s: _round_trip(s),
                      lambda out, s=s, label=label, terms=terms, reference=reference:
                      _check_round_trip(out, s, label, terms, reference)))
    return (rng.sample(ops, len(ops)) for _ in count())


def random_terms(rng, truncation: int, size: int) -> dict:
    """`size` distinct random trees of degree <= truncation, random coefficients.

    Degrees are drawn in proportion to the number of trees of each degree.
    """
    degrees = range(1, truncation + 1)
    weights = [trees.catalan(d - 1) for d in degrees]
    terms: dict = {}
    while len(terms) < size:
        t = _random_tree(rng, rng.choices(degrees, weights)[0])
        terms[t] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
    return terms


def _random_tree(rng, degree: int):
    if degree == 1:
        return trees.X
    k = rng.randint(1, degree - 1)
    return trees.graft(_random_tree(rng, k), _random_tree(rng, degree - k))


def _reference_problem(label, text, terms):
    if terms is None:
        expected = DIGESTS["series"][label]
        return None if sha256(text) == expected else f"{label}: text digest differs"
    truncation, coeffs = terms
    lines = text.split("\n")
    want = {f"{trees.render(t)}\t{c.numerator}/{c.denominator}" for t, c in coeffs.items()}
    if lines[0] != f"truncation\t{truncation}" or lines[-1] != "" or set(lines[1:-1]) != want:
        return f"{label}: text does not list the series' terms"
    return None


def _round_trip(s):
    text = s.to_text()
    return text, series.TreeSeries.from_text(text)


def _check_round_trip(out, s, label, terms, reference):
    text, back = out
    if "text" not in reference:
        problem = _reference_problem(label, text, terms)
        if problem:
            return problem
        reference["text"] = text
    elif text != reference["text"]:
        return "to_text output differs from the reference bytes"
    if back != s:
        return "from_text(to_text(s)) != s"
    return None


# -- nt-queries ---------------------------------------------------------------

FACTOR_BOUND = 128


def nt_queries(rng, small, tracer):
    """A seeded stream of number-theory calls, one round of calls per op.

    A round draws arguments afresh, in bands where the cost depends on the
    argument, so every round costs about the same, and shuffles the calls.
    Single calls differ in cost by five orders of magnitude, so a median
    over calls would sit at a gap between kinds of call; the median round
    does not.  Orders are asked of a pool of primes and exponents repeat, so
    the caches get hits.  Every round asks pi_m at the bound once, which
    factors every exponent up to it: each run pays the slow rho exponents
    101 and 125 once, in its first round, whatever the seed.
    """
    top, g2_top, fbound, p_limit = (60, 30, 16, 1000) if small else (1500, 300, FACTOR_BOUND, 10**5)
    w_bands = ((3511, 4000), (4000, 5000)) if small else ((800_000, 900_000), (900_000, 10**6))
    pool = rng.sample(primes.primes_up_to(p_limit)[1:], 16)

    def banded(hi, bands):
        width = hi // bands
        return [rng.randint(b * width + 1, (b + 1) * width) for b in range(bands)]

    def round_():
        ops = []
        for n in banded(top, 12):
            ops.append(Op(f"omega({n})", lambda n=n: omega.omega(n),
                          lambda v, n=n: _check_omega(n, v)))
        for n in banded(top, 6):
            # k from the middle half, where the cost hardly depends on k
            k = rng.randint(n // 4, 3 * n // 4)
            ops.append(Op(f"mersenne_binomial({n}, {k})",
                          lambda n=n, k=k: mersenne.mersenne_binomial(n, k),
                          lambda v, n=n, k=k: _check_binomial(n, k, v)))
        for n in banded(g2_top, 6):
            k = rng.randint(0, n)
            ops.append(Op(f"gaussian_binomial_at_2({n}, {k})",
                          lambda n=n, k=k: mersenne.gaussian_binomial_at_2(n, k),
                          lambda v, n=n, k=k: _check_binomial(n, k, v)))
        for _ in range(8):
            n = rng.randint(1, fbound)
            ops.append(Op(f"factor_mersenne({n})",
                          lambda n=n: orders.factor_mersenne(n, bound=fbound),
                          lambda v, n=n: _check_product(v, (1 << n) - 1)))
        for _ in range(4):
            n = rng.randint(1, fbound)
            ops.append(Op(f"omega_factorization({n})",
                          lambda n=n: omega.omega_factorization(n, bound=fbound),
                          lambda v, n=n: _check_product(v, omega.omega(n))))
        for x in (fbound + 1, rng.randint(2, fbound + 1)):
            ops.append(Op(f"pi_m({x})", lambda x=x: orders.pi_m(x, bound=fbound),
                          lambda v, x=x: _check_pi_m(x, v)))
        for _ in range(8):
            p = rng.choice(pool)
            ops.append(Op(f"order_record({p})", lambda p=p: orders.order_record(p),
                          lambda v, p=p: _check_order(p, v)))
        for _ in range(8):
            p = rng.choice(pool)
            n = (p - 1) * rng.randint(1, 10)  # a multiple of the order
            ops.append(Op(f"mersenne_valuation({p}, {n})",
                          lambda p=p, n=n: orders.mersenne_valuation(p, n),
                          lambda v, p=p, n=n: _check_valuation(p, n, v)))
        for lo, hi in w_bands:
            limit = rng.randint(lo, hi)
            ops.append(Op(f"wieferich_search({limit})",
                          lambda limit=limit: orders.wieferich_search(limit),
                          lambda v: None if v == [1093, 3511] else f"found {v}"))
        rng.shuffle(ops)
        return Op(f"round of {len(ops)} calls", lambda: _run_calls(ops),
                  lambda results: _check_calls(ops, results))

    return ([round_()] for _ in count())


def _run_calls(ops):
    results = []
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:
            raise RuntimeError(f"{op.label}: {type(exc).__name__}: {exc}") from exc
    return results


def _check_calls(ops, results):
    for op, result in zip(ops, results):
        problem = op.check(result)
        if problem:
            return f"{op.label}: {problem}"
    return None


def _check_omega(n, value):
    numerator = (1 << (n - 1)) * mersenne.mersenne_factorial(n - 1)
    return None if value * factorial(n) == numerator else "omega(n) * n! != 2**(n-1) * (n-1)!_M"


def _check_binomial(n, k, value):
    if n <= 300:
        if not value == mersenne.mersenne_binomial(n, k) == mersenne.gaussian_binomial_at_2(n, k):
            return "mersenne_binomial and gaussian_binomial_at_2 disagree"
        return None
    m = mersenne.mersenne_factorial
    return None if value * m(k) * m(n - k) == m(n) else "binomial * k!_M * (n-k)!_M != n!_M"


def _check_product(factors, expected):
    product = 1
    for p, e in factors.items():
        product *= p**e
    return None if product == expected else "factorization does not multiply back"


def _check_pi_m(x, value):
    count, found = value
    if count != len(found) or found != sorted(set(found)):
        return "count and prime list disagree"
    m = mersenne.mersenne_factorial(x - 1)
    return None if all(m % p == 0 for p in found) else "a listed prime does not divide (x-1)!_M"


def _check_order(p, record):
    n, e = record.order, record.wieferich_exponent
    if (p - 1) % n or pow(2, n, p**e) != 1 or pow(2, n, p ** (e + 1)) == 1:
        return f"order {n} / exponent {e} wrong for p={p}"
    return None


def _check_valuation(p, n, v):
    if v < 1 or pow(2, n, p**v) != 1 or pow(2, n, p ** (v + 1)) == 1:
        return f"valuation {v} of 2**{n}-1 at {p} is wrong"
    return None


# -- cli-cold -----------------------------------------------------------------

CLI_FIXED = (
    "verify --degree 9",
    "exp coeffs --degree 10",
    "exp coeffs --degree 10 --format tsv",
    "omega --max 150",
    "omega --max 200",
    "omega --max 60 --factor",
)
SMALL_CLI_FIXED = (
    "verify --degree 4",
    "exp coeffs --degree 4",
    "exp coeffs --degree 4 --format tsv",
    "omega --max 20",
    "omega --max 200",
    "omega --max 10 --factor",
)
CLI_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 1093, 3511, 9973, 65537, 99991)


def cli_commands(rng, small):
    """One round: the fixed commands plus one seeded command per mersenne subcommand."""
    round_ = list(SMALL_CLI_FIXED if small else CLI_FIXED)
    round_.append(f"mersenne factor {rng.randint(1, 64)}")
    round_.append(f"mersenne pim {rng.randint(2, 64)}")
    round_.append(f"mersenne order {rng.choice(CLI_PRIMES)}")
    round_.append(f"mersenne wieferich {rng.choice(CLI_PRIMES)}")
    rng.shuffle(round_)
    return round_


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the command line's output is checked under CPython's default limit on
    # int-to-str conversion, which a user has unless they raise it
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def cli_cold(rng, small, tracer):
    """One `python -m magmaexp ...` child process per op, one at a time.

    A batch is one round of commands.
    """
    env = cli_env()
    subprocess.run([sys.executable, "-m", "magmaexp", "mersenne", "order", "3"],
                   env=env, capture_output=True, check=True, timeout=60)  # warm-up
    return ([Op(command, lambda c=command: run_cli(c, env, tracer),
                lambda out, c=command: check_cli(c, out))
             for command in cli_commands(rng, small)] for _ in count())


def run_cli(command: str, env: dict, tracer) -> bytes:
    argv = command.split()
    if tracer is None:
        proc = subprocess.run([sys.executable, "-m", "magmaexp", *argv],
                              env=env, capture_output=True, timeout=120)
        return _cli_result(proc)
    span_file = OUT_DIR / f"cli-spans-{os.getpid()}.json"
    proc = subprocess.run([sys.executable, str(HERE / "clitrace.py"), str(span_file), *argv],
                          env=env, capture_output=True, timeout=120)
    child = json.loads(span_file.read_text())
    span_file.unlink()
    base = len(tracer.start)
    for name, start, end, parent in child["spans"]:
        tracer.add_span(name, start, end, parent + base if parent >= 0 else -1)
    for key, n in child["counts"].items():
        tracer.count(key, n)
    tracer.count("cli.output_bytes", len(proc.stdout))
    tracer.count("cli.exit_nonzero", int(proc.returncode != 0))
    return _cli_result(proc)


def _cli_result(proc) -> bytes:
    if proc.returncode != 0:
        raise CliError(f"exit code {proc.returncode}: {proc.stderr.decode()[-200:].strip()}")
    return proc.stdout


def check_cli(command: str, stdout: bytes) -> str | None:
    return None if sha256(stdout) == DIGESTS["cli"][command] else "stdout digest differs"


WORKLOADS = {
    "exp-verify": exp_verify,
    "series-io": series_io,
    "nt-queries": nt_queries,
    "cli-cold": cli_cold,
}
