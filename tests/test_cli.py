"""Tests for the command line interface."""

import json

import pytest

from jordanblocks import JordanType, parse_jordan_type
from jordanblocks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_prints_the_irreducible_type_by_default(self, capsys):
        code, out, err = run(capsys, "decompose", "--p", "2", "--type", "1, 3^2")
        assert code == 0
        assert out.strip() == "1^4, 3^4, 4^8"

    def test_tensor_rep(self, capsys):
        code, out, _ = run(capsys, "decompose", "--p", "2", "--type", "3", "--rep", "tensor")
        assert code == 0
        assert out.strip() == "1, 4^2"

    def test_verify_reports_agreement(self, capsys):
        code, out, _ = run(capsys, "decompose", "--p", "2", "--type", "3", "--verify")
        assert code == 0
        assert out.splitlines() == ["4^2", "verified: ok"]

    def test_trivial_type_on_a_big_space(self, capsys):
        code, out, _ = run(capsys, "decompose", "--p", "2", "--type", "1^36")
        assert code == 0
        assert parse_jordan_type(out.strip()).dim == 36 * 36 - 2

    def test_json_record_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--p", "3", "--type", "2^2", "--group", "sp",
            "--rep", "irr", "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["context"] == {"group": "Sp", "n": 4, "p": 3}
        assert record["rule"] == "i"
        assert record["verified"] is None
        rebuilt = JordanType({size: mult for size, mult in record["irreducible"]})
        assert rebuilt == JordanType({1: 2, 3: 1})
        assert JordanType(dict(record["carrier"])).dim == 6

    def test_json_with_verify_sets_the_flag(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--p", "2", "--type", "2, 3", "--json", "--verify"
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_symplectic_rejects_characteristic_two(self, capsys):
        code, out, err = run(capsys, "decompose", "--p", "2", "--type", "2^2", "--group", "sp")
        assert code == 3
        assert "error:" in err

    def test_symmetric_square_rejects_characteristic_two(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "2", "--type", "3", "--rep", "sym2")
        assert code == 3
        assert "p > 2" in err

    def test_bad_partition_text(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "3", "--type", "junk")
        assert code == 3
        assert "error:" in err

    def test_composite_characteristic(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "9", "--type", "3")
        assert code == 3
        assert "prime" in err

    def test_prime_too_large_for_int64_is_refused(self, capsys):
        # the first prime above 2^31 - 1; 2(p-1)^2 + p no longer fits in int64
        code, _, err = run(capsys, "decompose", "--p", "2147483659", "--type", "2")
        assert code == 3
        assert "error:" in err
        assert "2147483659" in err

    def test_largest_prime_int64_holds_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--p", "2147483647", "--type", "2", "--rep", "tensor"
        )
        assert code == 0
        assert out.strip() == "1, 3"

    def test_prime_past_int64_is_refused_before_any_arithmetic(self, capsys):
        # 2^127 - 1 is prime; it must be refused as an error, not overflow numpy
        p = str(2**127 - 1)
        code, out, err = run(capsys, "decompose", "--p", p, "--type", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert p in err

    def test_classical_type_constraint_is_enforced(self, capsys):
        # a symplectic form forces odd sizes to pair up
        code, _, err = run(capsys, "decompose", "--p", "3", "--type", "3, 1", "--group", "sp")
        assert code == 3
        assert "impossible in Sp" in err


class TestSweep:
    def test_linear_sweep_is_deterministic(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "3", "--max-n", "6")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 28
        assert rows[0] == "2;3;2;1, 3;3;i"
        code2, out2, _ = run(capsys, "sweep", "--p", "3", "--max-n", "6")
        assert out2 == out

    def test_small_characteristic_free_of_scaling_cases(self, capsys):
        # every dimension up to 4 stays below 5, so only the generic case fires
        code, out, _ = run(capsys, "sweep", "--p", "5", "--max-n", "4")
        assert code == 0
        for row in out.strip().splitlines():
            assert row.split(";")[5] == "i"

    def test_multiplicity_free_rows_are_a_subset(self, capsys):
        _, full, _ = run(capsys, "sweep", "--p", "3", "--max-n", "6")
        _, free, _ = run(capsys, "sweep", "--p", "3", "--max-n", "6", "--multiplicity-free-only")
        full_rows = set(full.strip().splitlines())
        free_rows = free.strip().splitlines()
        assert 0 < len(free_rows) < len(full_rows)
        assert full_rows.issuperset(free_rows)
        for row in free_rows:
            assert parse_jordan_type(row.split(";")[4]).is_multiplicity_free()

    def test_symplectic_sweep_uses_even_dimensions_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "3", "--max-n", "6", "--group", "sp")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows
        assert {row.split(";")[0] for row in rows} == {"4", "6"}

    def test_json_rows_parse(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "3", "--max-n", "4", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert set(record) == {"context", "input", "carrier", "irreducible", "rule", "verified"}


class TestReproduceTable:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "reproduce-table")
        assert code == 0
        assert "39/39 rows match" in out
        assert "MISMATCH" not in out

    def test_corrupted_fixture_is_caught(self, capsys, tmp_path):
        bad = tmp_path / "rows.txt"
        bad.write_text("3;2;3;1, 4^2;5^2\n")  # wrong irreducible column
        code, out, _ = run(capsys, "reproduce-table", "--fixture", str(bad))
        assert code == 4
        assert "MISMATCH" in out

    def test_malformed_fixture_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "rows.txt"
        bad.write_text("3;2;3\n")
        code, _, err = run(capsys, "reproduce-table", "--fixture", str(bad))
        assert code == 3
        assert "error:" in err

    def test_empty_fixture_is_rejected(self, capsys, tmp_path):
        bad = tmp_path / "rows.txt"
        bad.write_text("# only a comment\n")
        code, _, err = run(capsys, "reproduce-table", "--fixture", str(bad))
        assert code == 3


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--type", "3"])
        assert exc.value.code == 2
