"""Tests for reports: the verify workload's reference replayed, the Sp/SO
check shown able to fail, and a raised cap shown to reach it."""

from pathlib import Path

import pytest

from jordanblocks import GroupContext, JordanType, OracleCapError, build_report, parse_jordan_type, reports
from jordanblocks.cli import main

VERIFY_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify.txt"
GROUPS = {"sl": "SL", "sp": "Sp", "so": "SO"}


def test_verify_reference_is_replayed():
    # group;p;input;carrier;irreducible;rule, one row per case of the verify workload
    rows = [
        line.split(";")
        for line in VERIFY_REFERENCE.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    assert len(rows) == 624
    for group, p, text, carrier, irreducible, rule in rows:
        t = parse_jordan_type(text)
        report = build_report(t, GroupContext(GROUPS[group], t.dim, int(p)), verify=True)
        got = (report.carrier.render(), report.irreducible.render(), report.rule, report.verified)
        assert got == (carrier, irreducible, rule, True), (group, p, text)


class TestSquareVerification:
    CASES = [("sp", {2: 2}), ("so", {1: 2, 3: 1})]

    @pytest.fixture(autouse=True)
    def wrong_symmetric_square(self, monkeypatch):
        # S^2 V gains a block of size 1: the Sp check's other square, the SO carrier
        right = reports.sym2_type
        monkeypatch.setattr(reports, "sym2_type", lambda *a, **k: right(*a, **k) + JordanType({1: 1}))

    @pytest.mark.parametrize("group, blocks", CASES)
    def test_report_is_not_verified(self, group, blocks):
        t = JordanType(blocks)
        assert build_report(t, GroupContext(GROUPS[group], t.dim, 3), verify=True).verified is False

    @pytest.mark.parametrize("group, blocks", CASES)
    def test_cli_reports_the_mismatch(self, capsys, group, blocks):
        code = main(["decompose", "--p", "3", "--group", group, "--type", JordanType(blocks).render(), "--verify"])
        assert code == 4
        assert capsys.readouterr().out.splitlines()[-1] == "verified: MISMATCH"


@pytest.mark.parametrize("group, size", [("Sp", 16), ("SO", 15)])
def test_a_raised_cap_reaches_the_check(group, size):
    # the answer is one square of V_size, under the default cap; the check
    # also needs V tensor V*, whose side size^2 is past it until max_entries is raised
    t, ctx = JordanType({size: 1}), GroupContext(group, size, 3)
    side = size * size
    with pytest.raises(OracleCapError, match=f"{side}x{side}"):
        build_report(t, ctx, verify=True)
    assert build_report(t, ctx, verify=True, max_entries=side**2).verified is True


@pytest.mark.parametrize("group, n, blocks, reason", [
    *((group, n, {15: 1}, f"type has dimension 15, context needs {n}")
      for group, n in [("SL", 2), ("Sp", 4), ("SO", 5)]),
    ("Sp", 202, {201: 1, 1: 1}, "odd size 1 has odd multiplicity 1, impossible in Sp"),
    ("SO", 204, {202: 1, 2: 1}, "even size 2 has odd multiplicity 1, impossible in SO"),
])
def test_an_invalid_type_is_refused_before_any_carrier(group, n, blocks, reason):
    # SL's V_15 tensor V_15^* (225-square) and the squares of 201, 1 and
    # 202, 2 are past the default cap; the type is checked against its group
    # before any carrier
    message = f"^invalid {group} type: {reason}$"
    with pytest.raises(ValueError, match=message) as caught:
        build_report(JordanType(blocks), GroupContext(group, n, 3))
    assert not isinstance(caught.value, OracleCapError)
