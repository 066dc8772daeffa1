import json
import shlex
import subprocess
import sys
from decimal import Decimal
from itertools import takewhile
from pathlib import Path

import pytest

import magmaexp.cli as cli
from magmaexp import omega, parse
from magmaexp.cli import main
from magmaexp.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_omega_table_json(capsys):
    code, out, err = run(capsys, "omega", "--max", "6")
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r["omega"] for r in rows] == ["1", "1", "2", "7", "42", "434"]
    assert "factorization" not in rows[0]


def test_omega_table_with_factorizations(capsys):
    code, out, _ = run(capsys, "omega", "--max", "30", "--factor")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 30
    last = rows[-1]
    product = 1
    for p, e in last["factorization"].items():
        product *= int(p) ** e
    assert product == int(last["omega"])
    assert rows[5]["factorization"] == {"2": 1, "7": 1, "31": 1}


def test_omega_table_beyond_int_digit_limit(capsys):
    # omega(175) on has more digits than CPython's default int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "omega", "--max", "200")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == list(range(1, 201))
    # Decimal renders the exact value without going through int.__str__
    assert rows[-1]["omega"] == str(Decimal(omega(200)))


def test_omega_table_tsv(capsys):
    code, out, _ = run(capsys, "omega", "--max", "1", "--format", "tsv")
    assert code == 0
    assert out == "1\t1\n"
    code, out, _ = run(capsys, "omega", "--max", "6", "--format", "tsv", "--factor")
    assert out.splitlines()[-1] == "6\t434\t2*7*31"


def test_mersenne_order(capsys):
    code, out, _ = run(capsys, "mersenne", "order", "1093")
    assert code == 0
    assert json.loads(out) == {"p": "1093", "order": "364"}


def test_mersenne_order_rejects_composite(capsys):
    code, _, err = run(capsys, "mersenne", "order", "100")
    assert code == 2
    assert "odd prime" in err


def test_mersenne_wieferich(capsys):
    code, out, _ = run(capsys, "mersenne", "wieferich", "3511")
    assert code == 0
    assert json.loads(out) == {
        "p": "3511",
        "order": "1755",
        "wieferich_exponent": "2",
    }


def test_mersenne_factor(capsys):
    code, out, _ = run(capsys, "mersenne", "factor", "11")
    assert code == 0
    assert out.strip() == '{"23":1,"89":1}'
    code, out, _ = run(capsys, "mersenne", "factor", "1")
    assert json.loads(out) == {}


def test_mersenne_factor_bound_exit_code(capsys):
    code, _, err = run(capsys, "mersenne", "factor", "100")
    assert code == 3
    assert "bound" in err


def test_mersenne_factor_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MAGMAEXP_FACTOR_BOUND", "70")
    code, out, _ = run(capsys, "mersenne", "factor", "68")
    assert code == 0
    factors = json.loads(out)
    product = 1
    for p, e in factors.items():
        product *= int(p) ** e
    assert product == 2**68 - 1


def test_mersenne_pim_conventions(capsys):
    code, out, _ = run(capsys, "mersenne", "pim", "16")
    assert code == 0
    record = json.loads(out)
    assert record["convention"] == "example"
    assert record["count"] == 15
    assert record["primes"] == [
        "3", "5", "7", "11", "13", "17", "23", "31", "43", "73",
        "89", "127", "151", "257", "8191",
    ]
    code, out, _ = run(capsys, "mersenne", "pim", "16", "--convention", "definition")
    record = json.loads(out)
    assert record["count"] == 14
    assert "257" not in record["primes"]


def test_exp_coeffs_json(capsys):
    code, out, _ = run(capsys, "exp", "coeffs", "--degree", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    assert rows[2] == {
        "tree_key": "((x*x)*(x*x))",
        "degree": 4,
        "a": "1/56",
        "a_hat": "3",
    }
    assert [r["a"] for r in rows] == ["1/168", "1/168", "1/56", "1/168", "1/168"]


def test_exp_coeffs_tsv(capsys):
    code, out, _ = run(capsys, "exp", "coeffs", "--degree", "2", "--format", "tsv")
    assert code == 0
    assert out == "tree_key\tdegree\ta_numerator\ta_denominator\ta_hat\n(x*x)\t2\t1\t2\t1\n"


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--degree", "6")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(": pass") for line in lines)
    names = [line.split(":")[0] for line in lines]
    assert names == [
        "functional-equation",
        "derivative",
        "coefficient-sums",
        "binomial-product",
        "binomial-recursion",
        "omega-recursion",
        "factorizations",
    ]


def test_verify_degree_zero_is_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--degree", "0")
    assert code == 0
    assert all(line.endswith(": pass") for line in out.splitlines())


def test_output_is_deterministic(capsys):
    first = run(capsys, "omega", "--max", "12", "--factor")
    second = run(capsys, "omega", "--max", "12", "--factor")
    assert first == second
    first = run(capsys, "exp", "coeffs", "--degree", "5")
    second = run(capsys, "exp", "coeffs", "--degree", "5")
    assert first == second


def test_verify_over_the_tree_budget_exits_3_at_once(capsys):
    for degree in ("20", "1000000"):
        code, out, err = run(capsys, "verify", "--degree", degree)
        assert code == 3 and out == ""
        assert err == f"error: degree {degree} has more than 1000000 trees\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = [CheckResult("functional-equation", False, "coefficient of x off by 1")]
    monkeypatch.setattr(cli, "run_verification", lambda degree: failing)
    code, out, err = run(capsys, "verify", "--degree", "2")
    assert code == 1
    assert out == "functional-equation: FAIL\n"
    assert json.loads(err) == {
        "identity": "functional-equation",
        "counterexample": "coefficient of x off by 1",
    }


def test_broken_coefficient_exits_1(capsys, double_denominator):
    double_denominator(parse("((x*x)*x)"))
    code, out, err = run(capsys, "exp", "coeffs", "--degree", "3")
    assert code == 1
    assert err.startswith("error: a_hat(")


def test_verify_with_a_broken_coefficient_prints_every_check(capsys, double_denominator):
    double_denominator(parse("((x*x)*x)"))
    code, out, err = run(capsys, "verify", "--degree", "4")
    assert code == 1
    assert len(out.splitlines()) == 7
    assert "omega-recursion: pass\n" in out
    assert "binomial-product: FAIL\n" in out
    assert json.loads(err) == {
        "identity": "functional-equation",
        "counterexample": "coefficient of ((x*x)*x) off by 1/4",
    }


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "magmaexp", "omega", "--max", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == '{"n":1,"omega":"1"}\n{"n":2,"omega":"1"}\n'


def _readme_examples():
    """(command, stdout) of each "$ magmaexp ..." line in README.md; its
    stdout is the lines after it, up to a blank line or the end of the block."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = {}
    for i, line in enumerate(lines):
        if line.startswith("$ magmaexp "):
            out = takewhile(lambda row: row and row != "```", lines[i + 1 :])
            examples[line.removeprefix("$ magmaexp ")] = "".join(f"{row}\n" for row in out)
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example(capsys, command):
    assert run(capsys, *shlex.split(command)) == (0, README_EXAMPLES[command], "")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["omega"])  # missing --max
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["omega", "--max", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["omega", "--max", "abc"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max: expected a positive integer, got abc\n"
    )
