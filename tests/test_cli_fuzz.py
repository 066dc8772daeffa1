"""Seeded argv fuzz of the command line.

Every argv either gets an answer or fails with a documented exit code:
`main` returns 0-3, or argparse exits with 0 (help) or 2 (usage).  Any
other exception is a failure that names the argv.
"""

import random

from magmaexp.cli import main
from magmaexp.orders import FACTOR_BOUND_ENV

from conftest import SEED

# degrees 9-14 are left out: they are legitimate runs of up to minutes
# (verify --degree 14 builds 742,900 trees).  15 and 65 are over the tree
# budget, and 65 over the factoring bound, so those must be refused at once.
INTEGERS = ("-1", "0", "1", "2", "5", "8", "15", "65", "abc", "", "0x10", "1e3", "+3")

# the parser's commands with every option; None is an integer slot
TEMPLATES = (
    ("omega", "--max", None),
    ("omega", "--max", None, "--factor", "--format", "tsv"),
    ("omega", "--format", "json", "--max", None),
    ("mersenne", "order", None),
    ("mersenne", "wieferich", None),
    ("mersenne", "factor", None),
    ("mersenne", "pim", None),
    ("mersenne", "pim", None, "--convention", "definition"),
    ("exp", "coeffs", "--degree", None),
    ("exp", "coeffs", "--format", "tsv", "--degree", None),
    ("verify", "--degree", None),
)

JUNK = (
    "-h", "--help", "--bogus", "nonsense", "--", "-", "--format", "xml",
    "--max", "--factor", "--convention", "order", "exp", "verify",
)


def argv_cases(count):
    rng = random.Random(SEED)
    cases = [[], ["-h"], ["mersenne"], ["exp"]]
    for _ in range(count):
        argv = [rng.choice(INTEGERS) if tok is None else tok for tok in rng.choice(TEMPLATES)]
        mutation = rng.randrange(4)
        if mutation == 1:  # a missing token
            del argv[rng.randrange(len(argv))]
        elif mutation == 2:  # an extra token, -h among them
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(JUNK))
        elif mutation == 3:  # a token replaced
            argv[rng.randrange(len(argv))] = rng.choice(JUNK + INTEGERS)
        cases.append(argv)
    return cases


def test_every_argv_gets_a_documented_exit(capsys, monkeypatch):
    monkeypatch.delenv(FACTOR_BOUND_ENV, raising=False)
    codes = set()
    for argv in argv_cases(400):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), (argv, code)
        except Exception as exc:
            raise AssertionError(f"{argv!r} raised {exc!r}") from exc
        else:
            assert code in (0, 1, 2, 3), (argv, code)
        capsys.readouterr()
        codes.add(code)
    # the draw reaches answers, help, usage errors and refused bounds alike
    assert {0, 2, 3} <= codes
