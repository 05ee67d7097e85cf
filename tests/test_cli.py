"""Tests for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jordanblocks import JordanType, parse_jordan_type
from jordanblocks.cli import main

SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep.txt"


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

    def test_square_cap_is_not_the_pair_cap(self, capsys):
        # S^2 V_15 is 120-square; the 15 x 15 pair it is read off is 225-square
        code, out, _ = run(capsys, "decompose", "--p", "3", "--type", "15", "--group", "so")
        assert code == 0
        assert out == "1, 3, 9, 15^2, 21, 27^2\n"

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

    def test_exterior_square_at_characteristic_two(self, capsys):
        # the one carrier still read off an explicit matrix, with scipy
        code, out, _ = run(capsys, "decompose", "--p", "2", "--type", "5", "--rep", "ext2")
        assert code == 0
        assert out == "3, 7\n"

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

    def test_composite_characteristic_with_nothing_to_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "--p", "4", "--max-n", "1")
        assert code == 3
        assert out == ""
        assert "prime" in err

    @pytest.mark.parametrize("group, max_n", [("sp", 3), ("so", 4), ("so", 5)])
    def test_classical_group_at_characteristic_two_is_refused(self, capsys, group, max_n):
        # also when --max-n stops below the group's first dimension
        code, out, err = run(capsys, "sweep", "--p", "2", "--max-n", str(max_n), "--group", group)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "p = 2 is unsupported" in err

    @pytest.mark.parametrize("group", ["sp", "so"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_classical_rows_match_the_benchmark_reference(self, capsys, group, p):
        want = []
        for line in SWEEP_REFERENCE.read_text(encoding="utf-8").splitlines():
            if line.startswith(f"{group};{p};14;"):
                want.append(line.split(";", 3)[3])
        assert want
        code, out, _ = run(capsys, "sweep", "--p", str(p), "--max-n", "14", "--group", group)
        assert code == 0
        assert out.splitlines() == want

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

    def test_missing_fixture_is_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "reproduce-table", "--fixture", str(tmp_path / "none.txt"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot read fixture")


class TestImportCost:
    def test_scipy_is_not_loaded_off_the_p2_exterior_square(self):
        # a fresh interpreter, so that no other test's import counts
        code = """
import sys
import jordanblocks, jordanblocks.cli
from jordanblocks import GroupContext, JordanType, build_report
for kind, blocks in (("SL", {1: 1, 2: 1, 3: 1}), ("Sp", {1: 2, 3: 2}), ("SO", {1: 1, 3: 2})):
    t = JordanType(blocks)
    assert build_report(t, GroupContext(kind, t.dim, 3), verify=True).verified
print("scipy" in sys.modules)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
