"""Tests for the command line interface."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jordanblocks import (
    GroupContext, JordanType, cli, construction, linalg, oracle, parse_jordan_type, partitions_of, reports,
    validate_classical,
)
from jordanblocks.cli import main

from helpers import clear_memos

SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep.txt"


def reference_rows(group: str, p: int, max_n: int) -> list[str]:
    """The rows `sweep --group group --p p --max-n max_n` prints, in order, as
    recorded in the benchmark's reference (a row's first field is n)."""
    want = []
    for line in SWEEP_REFERENCE.read_text(encoding="utf-8").splitlines():
        fields = line.split(";", 3)
        if fields[:2] == [group, str(p)] and int(fields[3].split(";", 1)[0]) <= max_n:
            want.append(fields[3])
    assert want
    return want


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

    def test_json_refuses_another_rep(self, capsys):
        # the JSON report holds the carrier and the irreducible type only, so
        # --rep ext2 would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--p", "3", "--type", "2^2", "--rep", "ext2", "--json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--json" in err and "--rep" in err

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

    @pytest.mark.parametrize("p, rep, want", [
        ("3", "sym2", "3^2, 9, 15^2, 21, 27^2"),
        ("2", "ext2", "9, 16^6"),
    ])
    def test_square_rep_is_not_refused_for_the_pair_cap(self, capsys, p, rep, want):
        # under SL the report's carrier is V_15 tensor V_15^*, 225-square and
        # past the pair cap, but only the 120- or 105-square module is printed
        code, out, err = run(capsys, "decompose", "--p", p, "--type", "15", "--rep", rep)
        assert (code, err) == (0, "")
        assert out == want + "\n"

    def test_square_rep_verify_past_the_pair_cap_names_the_fix(self, capsys):
        # the square answers alone; only the SL check needs V_15 tensor V_15^*
        code, out, err = run(capsys, "decompose", "--p", "3", "--type", "15", "--rep", "sym2", "--verify")
        assert code == 3
        assert out == ""
        assert "exceeds the cap" in err and "--verify" in err

    def test_tensor_rep_past_the_cap_is_refused(self, capsys):
        code, out, err = run(capsys, "decompose", "--p", "5", "--type", "25", "--rep", "tensor")
        assert code == 3
        assert out == ""
        assert "exceeds the cap" in err

    def test_bad_partition_text(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "3", "--type", "junk")
        assert code == 3
        assert "error:" in err

    def test_composite_characteristic(self, capsys):
        code, _, err = run(capsys, "decompose", "--p", "9", "--type", "3")
        assert code == 3
        assert "prime" in err

    def test_prime_too_large_for_int64_is_answered_by_closed_forms(self, capsys):
        # the first prime above 2^31 - 1: Clebsch-Gordan and case (i) answer
        # with no elimination, so int64 sets no bound
        code, out, _ = run(capsys, "decompose", "--p", "2147483659", "--type", "2")
        assert code == 0
        assert out == "3\n"

    def test_prime_too_large_for_int64_is_refused_by_verify(self, capsys):
        # 2(p-1)^2 + p no longer fits in int64, so the verify elimination refuses it
        code, out, err = run(
            capsys, "decompose", "--p", "2147483659", "--type", "2", "--verify"
        )
        assert code == 3
        assert out == ""
        assert "error:" in err
        assert "2147483659" in err
        assert "--verify" in err  # the refusal names the fix: run without it

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
        # the exterior square at p = 2 folds across 4: V_7 + the square of V_3
        code, out, _ = run(capsys, "decompose", "--p", "2", "--type", "5", "--rep", "ext2")
        assert code == 0
        assert out == "3, 7\n"

    def test_classical_type_constraint_is_enforced(self, capsys):
        # a symplectic form forces odd sizes to pair up
        code, _, err = run(capsys, "decompose", "--p", "3", "--type", "3, 1", "--group", "sp")
        assert code == 3
        assert "impossible in Sp" in err

    def test_invalid_type_past_the_cap_is_refused_for_its_type(self, capsys):
        # the exterior square of 201, 1 is past the default cap; the type is refused first
        code, out, err = run(capsys, "decompose", "--p", "3", "--type", "201, 1", "--group", "sp")
        assert code == 3
        assert out == ""
        assert err == "error: invalid Sp type: odd size 1 has odd multiplicity 1, impossible in Sp\n"

    @pytest.mark.parametrize("group, size", [("so", "15"), ("sp", "16")])
    def test_square_verify_past_the_cap_names_the_fix(self, capsys, group, size):
        # the answer needs only the squares; the check also needs V tensor V*, past the pair cap
        code, out, err = run(capsys, "decompose", "--p", "3", "--type", size, "--group", group, "--verify")
        assert code == 3
        assert out == ""
        assert "--verify" in err

    TYPES = {"sl": "3, 4", "sp": "1^2, 4", "so": "1^2, 3"}

    @pytest.mark.parametrize("group, rep, p", [
        *((group, rep, "3") for group in ("sl", "sp", "so") for rep in ("tensor", "ext2", "sym2", "irr")),
        *(("sl", rep, "2") for rep in ("tensor", "ext2", "irr")),
    ])
    def test_a_wrong_printed_module_fails_the_check(self, capsys, monkeypatch, group, rep, p):
        # the printed module gains a block of size 1 where it is computed: irr
        # in the group's carrier, which the rule then cuts down
        def plus_one(engine):
            return lambda *a, **k: engine(*a, **k) + JordanType({1: 1})

        if rep == "irr":
            engine = {"sl": "tensor_dual_type", "sp": "ext2_type", "so": "sym2_type"}[group]
            monkeypatch.setattr(reports, engine, plus_one(getattr(reports, engine)))
        else:
            monkeypatch.setattr(cli, "_module", plus_one(cli._module))
        code, out, err = run(capsys, "decompose", "--p", p, "--group", group, "--type", self.TYPES[group],
                             "--rep", rep, "--verify")
        if (group, rep, p) == ("sl", "ext2", "2"):  # no check reads the exterior square at p = 2
            assert (code, out) == (3, "") and "--verify" in err
        else:
            assert code == 4
            assert out.splitlines()[-1] == "verified: MISMATCH"

    @pytest.mark.parametrize("rep", ["ext2", "sym2"])
    def test_a_wrong_pair_in_both_squares_fails_the_sl_check(self, capsys, monkeypatch, rep):
        # a wrong V_3 tensor V_4 enters ext2, sym2 and V tensor V* alike, so
        # ext2 + sym2 == V tensor V* still holds; SL's elimination catches it
        right = oracle._tensor_block_type
        monkeypatch.setattr(oracle, "_tensor_block_type",
                            lambda m, n, p: JordanType({1: 12}) if (m, n) == (3, 4) else right(m, n, p))
        try:
            code, out, _ = run(capsys, "decompose", "--p", "3", "--type", "3, 4", "--rep", rep, "--verify")
        finally:
            right.cache_clear()  # no pair built on the wrong one stays memoized
        assert code == 4
        assert out.splitlines()[-1] == "verified: MISMATCH"

    @pytest.mark.parametrize("group", ["sl", "sp", "so"])
    def test_verify_never_changes_the_printed_answer(self, capsys, group):
        kind, dims = {"sl": ("SL", range(2, 7)), "sp": ("Sp", (4, 6)), "so": ("SO", (5, 6, 7))}[group]
        commands = 0
        for n, p in itertools.product(dims, (2, 3, 5)):
            try:
                ctx = GroupContext(kind, n, p)
            except ValueError:
                continue
            for t in partitions_of(n):
                if not validate_classical(t, ctx).ok:
                    continue
                for rep in ("tensor", "ext2", "sym2", "irr"):
                    argv = ("decompose", "--p", str(p), "--group", group, "--type", t.render(), "--rep", rep)
                    plain, checked = run(capsys, *argv), run(capsys, *argv, "--verify")
                    commands += 2
                    if (group, rep, p) == ("sl", "ext2", 2):  # no check reads the exterior square at p = 2
                        assert checked[:2] == (3, "") and "--verify" in checked[2]
                    elif (group, rep, p) == ("sl", "sym2", 2):  # S^2 V is refused at p = 2 either way
                        assert plain[0] == 3 and checked == plain
                    else:
                        assert plain[0] == 0 and checked == (0, plain[1] + "verified: ok\n", "")
        assert commands == {"sl": 672, "sp": 192, "so": 256}[group]

    @pytest.mark.parametrize("group", ["sl", "sp", "so"])
    @pytest.mark.parametrize("rep", ["tensor", "ext2", "sym2", "irr"])
    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_each_command_builds_at_most_one_report(self, capsys, monkeypatch, group, rep, verify):
        calls = []
        build = cli.build_report
        monkeypatch.setattr(cli, "build_report", lambda *a, **k: calls.append(a) or build(*a, **k))
        code, out, _ = run(capsys, "decompose", "--p", "3", "--group", group, "--type", self.TYPES[group],
                           "--rep", rep, *verify)
        assert code == 0
        assert len(calls) <= 1
        assert out.splitlines()[1:] == (["verified: ok"] if verify else [])


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
        want = reference_rows(group, p, 14)
        code, out, _ = run(capsys, "sweep", "--p", str(p), "--max-n", "14", "--group", group)
        assert code == 0
        assert out.splitlines() == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
    def test_linear_rows_match_the_benchmark_reference(self, capsys, p):
        # the reference's p = 2 call reaches n = 15, which the default cap
        # refuses; its rows up to n = 14 are this call's
        want = reference_rows("sl", p, 14)
        code, out, _ = run(capsys, "sweep", "--p", str(p), "--max-n", "14")
        assert code == 0
        assert out.splitlines() == want

    def test_rows_the_cap_refuses_are_answered_and_verified_past_it(self):
        # the reference's p = 2 call reaches n = 15, whose 225-square V tensor V*
        # the default cap refuses; past the cap both routes give its rows
        want = [row for row in reference_rows("sl", 2, 15) if row.startswith("15;")]
        got = []
        for t in partitions_of(15):
            report = reports.build_report(t, GroupContext("SL", 15, 2), verify=True, max_entries=225**2)
            assert report.verified
            got.append(f"15;2;{t.render()};{report.carrier.render()};{report.irreducible.render()};{report.rule}")
        assert len(want) == 176 and got == want

    @pytest.mark.parametrize("group, kind", [("sl", "SL"), ("sp", "Sp"), ("so", "SO")])
    @pytest.mark.parametrize("p", [3, 5])
    def test_swept_dimensions_are_those_the_group_accepts(self, capsys, group, kind, p):
        code, out, _ = run(capsys, "sweep", "--p", str(p), "--max-n", "12", "--group", group)
        assert code == 0
        swept = {int(row.split(";", 1)[0]) for row in out.splitlines()}
        accepted = set()
        for n in range(13):
            try:
                GroupContext(kind, n, p)
            except ValueError:
                continue
            accepted.add(n)
        assert swept == accepted

    def test_reader_closing_early_ends_quietly(self):
        # the JSON rows of this sweep (about 110 kB) overflow a pipe buffer,
        # so the writer meets the closed pipe however fast it runs
        proc = subprocess.Popen(
            [sys.executable, "-m", "jordanblocks.cli", "sweep", "--p", "3", "--max-n", "14", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        assert json.loads(proc.stdout.readline())["context"]["n"] == 2
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_json_rows_parse(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "3", "--max-n", "4", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert set(record) == {"context", "input", "carrier", "irreducible", "rule", "verified"}


class TestParser:
    def test_repeated_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["sweep", "--p", "3", "--max-n", "3"], ["decompose", "--p", "3", "--type", "1, 2"]) * 2:
            assert run(capsys, *argv)[0] == 0
        assert built.count("jordanblocks") == 1

    def test_no_option_carries_over_between_calls(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--group", "sp", "--json", "--multiplicity-free-only", "--p", "5", "--max-n", "6"
        )
        assert code == 0 and json.loads(out.splitlines()[0])["context"]["group"] == "Sp"
        code, out, _ = run(capsys, "sweep", "--p", "3", "--max-n", "3")
        assert code == 0
        assert out.splitlines() == reference_rows("sl", 3, 3)
        assert run(capsys, "decompose", "--p", "3", "--type", "1, 2", "--rep", "tensor", "--verify")[:2] == (
            0, "1^2, 2^2, 3\nverified: ok\n"
        )
        assert run(capsys, "decompose", "--p", "3", "--type", "1, 2")[:2] == (0, "2^2, 3\n")

    def test_import_builds_no_parser(self):
        code = """
import jordanblocks.cli
print(jordanblocks.cli._build_parser.cache_info().currsize)
"""
        assert fresh_interpreter(code).strip() == "0"


def test_no_answer_eliminates_or_builds_a_matrix(capsys, monkeypatch):
    # every sweep row and every decompose answer, from cold memos, comes from
    # closed forms: each elimination, explicit matrix and elimination width refuses
    def refuse(*args, **kwargs):
        raise AssertionError("an answer eliminated or built a matrix")

    for module, name in [
        (oracle, "_echelon"), (oracle, "_rank_chain"), (oracle, "jordan_type_of"),
        (construction, "_eliminate_pieces"), (reports, "_split_adjoint_type"),
        (construction, "build_adjoint_action"), (linalg, "jordan_block"), (linalg, "kronecker"),
        *((module, "_working_dtype") for module in (linalg, oracle, construction, cli)),
    ]:
        monkeypatch.setattr(module, name, refuse)
    commands = [
        *(["sweep", "--max-n", "10", "--group", "sl", "--p", p] for p in ("2", "3", "5")),
        *(["sweep", "--max-n", "10", "--group", group, "--p", p] for group in ("sp", "so") for p in ("3", "5")),
        *(["decompose", "--p", "3", "--group", group, "--type", TestDecompose.TYPES[group], *rep]
          for group in ("sl", "sp", "so")
          for rep in (["--rep", "tensor"], ["--rep", "ext2"], ["--rep", "sym2"], ["--rep", "irr"], ["--json"])),
        *(["decompose", "--p", "2", "--type", TestDecompose.TYPES["sl"], "--rep", rep]
          for rep in ("tensor", "ext2", "irr")),
    ]
    clear_memos()
    try:
        codes = [run(capsys, *argv)[0] for argv in commands]
    finally:
        clear_memos()
    assert codes == [0] * len(commands)


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2;x;2;1, 3;3", "invalid literal for int()"),
            ("3;4;3;1, 4^2;4^2", "characteristic must be prime, got 4"),
            ("3;2;2;1, 4^2;4^2", "type has dimension 2, row says n = 3"),
            ("3;2;3^;1, 4^2;4^2", "bad term"),
            (f"2;{2**61 - 1};2;1, 3;3", "would overflow int64"),
        ],
        ids=["integer", "prime", "dimension", "partition", "large-prime"],
    )
    def test_bad_row_is_refused_with_its_line_before_any_row_runs(self, capsys, tmp_path, row, message):
        # line 2 is a wrong answer that would exit 4 if it ran; the bad row on
        # line 3 must stop the command before it does
        bad = tmp_path / "rows.txt"
        bad.write_text(f"# comment\n3;2;3;1, 4^2;5^2\n{row}\n")
        code, out, err = run(capsys, "reproduce-table", "--fixture", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("error: fixture line 3: ")
        assert message in err

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


def src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter on this checkout's src/, so
    that no other test's import counts."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportCost:
    def test_scipy_is_not_loaded_off_jordan_type_of(self):
        code = """
import sys
import jordanblocks, jordanblocks.cli
from jordanblocks import GroupContext, JordanType, build_report, ext2_type
for kind, blocks in (("SL", {1: 1, 2: 1, 3: 1}), ("Sp", {1: 2, 3: 2}), ("SO", {1: 1, 3: 2})):
    t = JordanType(blocks)
    assert build_report(t, GroupContext(kind, t.dim, 3), verify=True).verified
assert ext2_type(JordanType({40: 1}), 2, max_entries=780**2).dim == 780
print("scipy" in sys.modules)
"""
        assert fresh_interpreter(code) == "False\n"

    def test_nothing_but_the_explicit_referee_needs_scipy(self):
        # with scipy blocked, as in an install without the test extra, the
        # package answers and checks every group; only jordan_type_of fails
        code = """
import contextlib, io, sys
sys.modules["scipy"] = None
import jordanblocks, jordanblocks.cli
from jordanblocks import GroupContext, JordanType, build_report
from jordanblocks.oracle import jordan_type_of
from jordanblocks.linalg import jordan_block
for kind, blocks in (("SL", {1: 1, 2: 1, 3: 1}), ("Sp", {1: 2, 3: 2}), ("SO", {1: 1, 3: 2})):
    t = JordanType(blocks)
    assert build_report(t, GroupContext(kind, t.dim, 3), verify=True).verified
for argv in (
    ["decompose", "--p", "3", "--type", "1, 2, 3", "--verify"],
    ["sweep", "--p", "3", "--group", "so", "--max-n", "8"],
    ["reproduce-table"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert jordanblocks.cli.main(argv) == 0, argv
try:
    jordan_type_of(jordan_block(2, 3))
except ImportError as exc:
    print(exc.name.partition(".")[0])
"""
        assert fresh_interpreter(code) == "scipy\n"

    @pytest.mark.parametrize("module", ["jordanblocks.recursions", "jordanblocks.oracle"])
    def test_rules_and_oracle_import_alone(self, module):
        # oracle routes pairs through recursions, which imports no oracle;
        # either may be imported first, and neither may pull in scipy
        code = f"""
import sys
import {module}
from jordanblocks.oracle import tensor_block_type
from jordanblocks.recursions import reflect_rule
assert reflect_rule(3, 4, 5, tensor_block_type(1, 2, 5)) == tensor_block_type(3, 4, 5)
print("scipy" in sys.modules)
"""
        assert fresh_interpreter(code) == "False\n"


class TestTracedSpans:
    RECORDED = (
        "rules.adjoint_rule", "rules.sp_w2_rule", "rules.so_2w1_rule", "rules.rule_case",
        "rules.validate_classical", "oracle.tensor_dual_type", "oracle.ext2_type",
        "oracle.sym2_type",
    )

    def test_the_benchmark_tracer_sees_every_rule_and_carrier(self):
        # bench/spans.py traces a function by swapping the module attributes
        # that bind it, so a rule or carrier reached any other way records no
        # call and drops out of the per-layer metrics
        bench = Path(__file__).resolve().parents[1] / "bench"
        code = f"""
import sys
sys.path.insert(0, {str(bench)!r})
import jordanblocks.cli
from jordanblocks import reports
from jordanblocks.partitions import JordanType
from jordanblocks.rules import GroupContext
from spans import Tracer
tracer = Tracer()
tracer.install()
for kind, blocks in (("SL", {{1: 1, 3: 1}}), ("Sp", {{2: 2}}), ("SO", {{1: 2, 3: 1}})):
    t = JordanType(blocks)
    reports.build_report(t, GroupContext(kind, t.dim, 3))
calls = tracer.summary()["calls"]
print(" ".join(str(calls[name]) for name in {self.RECORDED!r}))
"""
        counts = dict(zip(self.RECORDED, map(int, fresh_interpreter(code).split())))
        assert [name for name, count in counts.items() if count < 1] == []


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

    def test_verify_help_names_each_groups_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "SL recomputes tensor and irr by elimination" in text
        assert "Sp/SO check carrier + other square == V tensor V*" in text
        assert "any other --rep is checked at odd p by ext2 + sym2 == V tensor V*" in text
