"""Golden-file and exit-code tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conicring.cli import build_parser, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The parent's environment with the absolute ``src`` first on PYTHONPATH.

    A relative ``PYTHONPATH=src`` names nothing from ``cwd=DATA``; an absolute
    one lets a child import this checkout whatever its working directory.
    PYTHONHASHSEED is left alone so that each child gets its own hash seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_process(*args) -> subprocess.CompletedProcess:
    """Run ``python -m conicring *args`` as a fresh interpreter in ``DATA``.

    Every CLI test goes through here, so a test passes only if the child
    imported the package from ``SRC``, never from a relative PYTHONPATH entry
    that happens to resolve from the parent's working directory.
    """
    return subprocess.run(
        [sys.executable, "-m", "conicring", *args],
        capture_output=True,
        cwd=DATA,
        env=child_env(),
    )


def run_cli(*args, expect: int = 0) -> bytes:
    result = cli_process(*args)
    assert result.returncode == expect, result.stderr.decode()
    return result.stdout


def is_handled_error(result, code: int, message: bytes) -> bool:
    """Exit ``code`` with ``cli.main``'s own ``message`` on stderr and no traceback.

    An import failure, an uncaught exception or an argparse usage error also
    exit 1 or 2, but none of them prints the handled-error text.
    """
    return (
        result.returncode == code
        and message in result.stderr
        and b"Traceback" not in result.stderr
    )


GOLDEN_CASES = [
    (("classify", "conics_mixed.txt"), "classify_mixed.golden"),
    (("classify", "--json", "conics_mixed.txt"), "classify_mixed_json.golden"),
    (("product", "reduce_rank2.txt"), "product_rank2.golden"),
    (("product", "--json", "reduce_rank2.txt"), "product_rank2_json.golden"),
    (("product", "empty.txt"), "product_empty.golden"),
    (("equal", "prod_a.txt", "prod_b.txt"), "equal_ab.golden"),
    (("equal", "prod_a.txt", "prod_c.txt"), "equal_ac.golden"),
    (("equal", "prod_c.txt", "prod_d.txt"), "equal_cd.golden"),
    (("equal", "--json", "prod_c.txt", "prod_d.txt"), "equal_cd_json.golden"),
    (("stably-birational", "prod_a.txt", "prod_c.txt"), "sb_ac.golden"),
    (("stably-birational", "prod_c.txt", "prod_d.txt"), "sb_cd.golden"),
    (("reduce", "reduce_rank2.txt"), "reduce_rank2.golden"),
    (("reduce", "--json", "reduce_rank2.txt"), "reduce_rank2_json.golden"),
    (("reduce", "prod_c.txt"), "reduce_single.golden"),
    (("reduce", "prod_a.txt"), "reduce_pair.golden"),
    (("ring-eval", "ring_zero.txt"), "ring_zero.golden"),
    (("ring-eval", "ring_square.txt"), "ring_square.golden"),
    (("ring-eval", "--json", "ring_square.txt"), "ring_square_json.golden"),
]


@pytest.mark.parametrize("args,golden", GOLDEN_CASES, ids=lambda v: str(v[0]) if isinstance(v, tuple) else v)
def test_golden(args, golden):
    assert run_cli(*args) == (DATA / golden).read_bytes()


def test_byte_identical_reruns():
    for args, _ in GOLDEN_CASES[:6]:
        assert run_cli(*args) == run_cli(*args)


def test_cli_import_skips_dataclasses_inspect_json_and_typing():
    """Start-up imports only what every run needs; ``-S`` keeps ``site`` out of the count."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import conicring.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.split() == []


class TestExitCodes:
    def test_degenerate_conic_is_exit_one(self):
        result = cli_process("classify", "malformed_zero.txt")
        assert is_handled_error(result, 1, b"nonzero"), result.stderr.decode()
        assert result.stdout == b""

    def test_bad_token_is_exit_one(self):
        result = cli_process("classify", "malformed_token.txt")
        assert is_handled_error(result, 1, b"error: line 1, column 3"), result.stderr.decode()

    def test_factor_bound_is_exit_two(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("1 10403\n")  # 101 * 103, unfactorable with bound 10
        result = cli_process("classify", "--factor-bound", "10", str(path))
        assert is_handled_error(result, 2, b"error: unfactored cofactor"), result.stderr.decode()

    def test_bad_second_token_column(self, tmp_path):
        for text, message in (("-1 -\n", b"error: line 1, column 4"),
                              ("1/2 1/\n", b"error: line 1, column 5")):
            path = tmp_path / "bad.txt"
            path.write_text(text)
            result = cli_process("classify", str(path))
            assert is_handled_error(result, 1, message), result.stderr.decode()

    def test_ring_eval_factor_bound_is_exit_two(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("[(1,10403)]\n")
        result = cli_process("ring-eval", "--factor-bound", "10", str(path))
        assert is_handled_error(result, 2, b"error: unfactored cofactor"), result.stderr.decode()

    def test_factor_bound_applies_to_input_only(self, tmp_path):
        """-21 = -3 * 7 factors under bound 3; the representative search may not re-factor."""
        path = tmp_path / "conic.txt"
        path.write_text("-1 -21\n")
        expected = b"m=0, dim G=1, basis [{2,3,7,inf}]\nrepresentative {2,3,7,inf}: -1 -21\n"
        assert run_cli("product", str(path)) == expected
        assert run_cli("product", "--factor-bound", "3", str(path)) == expected

    def test_search_bound_is_exit_two(self):
        result = cli_process("classify", "--search-bound", "0", "conics_mixed.txt")
        message = b"error: no rational point of height <= 0"
        assert is_handled_error(result, 2, message), result.stderr.decode()

    def test_negative_verdicts_still_exit_zero(self):
        run_cli("equal", "prod_c.txt", "prod_d.txt", expect=0)
        run_cli("stably-birational", "prod_c.txt", "prod_d.txt", expect=0)

    def test_ring_parse_error_is_exit_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("P1 +\n")
        result = cli_process("ring-eval", str(path))
        assert is_handled_error(result, 1, b"error: line 1, column 5"), result.stderr.decode()

    def test_missing_file_is_exit_one(self):
        result = cli_process("classify", "no_such_file.txt")
        assert is_handled_error(result, 1, b"error: cannot read"), result.stderr.decode()

    def test_non_utf8_file_is_exit_one(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1 1\n")
        for command in ("classify", "ring-eval"):
            result = cli_process(command, str(path))
            assert is_handled_error(result, 1, b"error: cannot read"), result.stderr.decode()

    def test_non_positive_factor_bound_is_usage_error(self):
        for args in (("classify", "--factor-bound", "0"), ("reduce", "--factor-bound", "-3")):
            result = cli_process(*args, "conics_mixed.txt")
            assert result.returncode == 2, result.stderr.decode()
            assert b"usage:" in result.stderr and b"argument --factor-bound" in result.stderr
            assert b"Traceback" not in result.stderr

    def test_deeply_nested_ring_expression_is_exit_one(self, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("(" * 400 + "P1" + ")" * 400 + "\n")
        result = cli_process("ring-eval", str(path))
        message = b"expression nested too deeply"
        assert is_handled_error(result, 1, message), result.stderr.decode()

    @pytest.mark.parametrize("command,text,location", [
        ("classify", "{n} 3\n", b"line 1, column 1"),
        ("classify", "-1 1/{n}\n", b"line 1, column 4"),
        ("ring-eval", "[({n},3)]\n", b"line 1, column 3"),
        ("ring-eval", "[(-1,-1)]^{n}\n", b"line 1, column 11"),
        ("ring-eval", "P1 + {n}\n", b"line 1, column 6"),
    ])
    def test_number_past_int_string_limit_is_exit_one(self, tmp_path, command, text, location):
        """A 5,000-digit number exceeds Python's default int-string limit of 4,300 digits."""
        path = tmp_path / "long.txt"
        path.write_text(text.format(n="7" * 5000))
        result = cli_process(command, str(path))
        message = b"error: " + location + b": number has 5000 digits, more than the limit of 4300"
        assert is_handled_error(result, 1, message), result.stderr.decode()


    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_huge_ring_coefficient_is_exit_two(self, tmp_path, flags):
        """2^20000 has 6,021 digits, past Python's default int-string limit of 4,300."""
        path = tmp_path / "huge.txt"
        path.write_text("2^20000\n")
        result = cli_process("ring-eval", *flags, str(path))
        message = b"error: a coefficient of the result has more than 4300 digits"
        assert is_handled_error(result, 2, message), result.stderr.decode()
        assert result.stdout == b""

    def test_ring_coefficient_at_the_int_string_limit(self, tmp_path, capsys):
        """10^4299 has 4,300 digits and renders; 10^4300 has one more and does not."""
        path = tmp_path / "expr.txt"
        path.write_text("10^4299\n")
        assert main(["ring-eval", str(path)]) == 0
        assert capsys.readouterr().out == "1" + "0" * 4299 + "*C(0)\n"
        path.write_text("10^4300\n")
        assert main(["ring-eval", str(path)]) == 2
        assert "more than 4300 digits" in capsys.readouterr().err

    def test_product_basis_class_realized_by_no_factor_is_exit_two(self, tmp_path):
        """The span's basis is [{10007,inf}, {10039,inf}]; no factor has the second class."""
        path = tmp_path / "conics.txt"
        path.write_text("-1 -10007\n10007 -10039\n")
        result = cli_process("product", str(path))
        message = b"error: no conic with coefficients <= 10000 realizes {10039,inf}"
        assert is_handled_error(result, 2, message), result.stderr.decode()


SUBCOMMAND_ARGS = {
    "classify": ["f"],
    "product": ["f"],
    "equal": ["f", "g"],
    "stably-birational": ["f", "g"],
    "reduce": ["f"],
    "ring-eval": ["f"],
}


class TestFlagTable:
    """Which flags each subcommand takes, checked in-process."""

    @pytest.mark.parametrize("command", ["equal", "stably-birational", "reduce", "ring-eval"])
    def test_search_bound_rejected_where_nothing_searches(self, command, capsys):
        """The usage error names the subcommand and the flag, not an input path."""
        argv = [command, "--search-bound", "5", *SUBCOMMAND_ARGS[command]]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: {command}: unrecognized arguments: --search-bound\n")
        assert not set(SUBCOMMAND_ARGS[command]) & set(err.split())

    @pytest.mark.parametrize("command", ["classify", "product"])
    def test_search_bound_taken_where_a_search_runs(self, command):
        parser = build_parser()
        assert parser.parse_args([command, "f"]).search_bound == 10000
        assert parser.parse_args([command, "--search-bound", "5", "f"]).search_bound == 5

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_factor_bound_and_json_everywhere(self, command):
        argv = [command, "--factor-bound", "7", "--json", *SUBCOMMAND_ARGS[command]]
        args = build_parser().parse_args(argv)
        assert (args.command, args.factor_bound, args.json) == (command, 7, True)


def test_product_round_trip(tmp_path):
    """Representatives plus m split conics re-ingest to the same normal form."""
    payload = json.loads(run_cli("product", "--json", "reduce_rank2.txt"))
    lines = [f"{a} {b}" for a, b in payload["representatives"]]
    lines += ["1 1"] * payload["m"]
    rebuilt = tmp_path / "rebuilt.txt"
    rebuilt.write_text("".join(line + "\n" for line in lines))
    payload2 = json.loads(run_cli("product", "--json", str(rebuilt)))
    assert payload2["m"] == payload["m"]
    assert payload2["dim"] == payload["dim"]
    assert payload2["basis"] == payload["basis"]


def test_product_representative_falls_back_to_an_input_factor(tmp_path):
    """No coefficient pair within the search bound realizes {10007,inf}; the input conic does."""
    path = tmp_path / "conic.txt"
    path.write_text("-1 -10007\n")
    expected = b"m=0, dim G=1, basis [{10007,inf}]\nrepresentative {10007,inf}: -1 -10007\n"
    assert run_cli("product", str(path)) == expected
    payload = json.loads(run_cli("product", "--json", str(path)))
    assert payload["representatives"] == [[-1, -10007]]
