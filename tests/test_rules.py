"""Tests for the combinatorial rules on classical group carriers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import (
    GroupContext,
    JordanType,
    adjoint_rule,
    build_adjoint_action,
    ext2_type,
    jordan_type_of,
    partitions_of,
    sym2_type,
    tensor_dual_type,
    validate_classical,
)
from jordanblocks.partitions import alpha_of
from jordanblocks.rules import rule_case, so_2w1_rule, sp_w2_rule

small_types = st.dictionaries(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=3),
    min_size=1,
    max_size=3,
).map(JordanType)


class TestGroupContext:
    def test_accepts_standard_contexts(self):
        GroupContext("SL", 2, 2)
        GroupContext("Sp", 4, 3)
        GroupContext("SO", 5, 7)

    @pytest.mark.parametrize(
        "kind, n",
        [("SL", 1), ("SL", 0), ("Sp", 2), ("Sp", 3), ("Sp", 5), ("SO", 4), ("SO", 3)],
    )
    def test_rejects_small_or_odd_ranks(self, kind, n):
        with pytest.raises(ValueError):
            GroupContext(kind, n, 3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GroupContext("GL", 3, 3)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError, match="prime"):
            GroupContext("SL", 3, 6)

    @pytest.mark.parametrize("kind, n", [("Sp", 4), ("SO", 5)])
    def test_square_carriers_need_odd_characteristic(self, kind, n):
        with pytest.raises(ValueError, match="odd characteristic"):
            GroupContext(kind, n, 2)

    def test_sl_works_in_characteristic_two(self):
        ctx = GroupContext("SL", 4, 2)
        assert ctx.kind == "SL"


class TestValidateClassical:
    def test_dimension_mismatch(self):
        v = validate_classical(JordanType({2: 1}), GroupContext("Sp", 4, 3))
        assert not v.ok
        assert "dimension" in v.reason

    def test_symplectic_needs_even_count_of_odd_sizes(self):
        ctx = GroupContext("Sp", 4, 3)
        assert not validate_classical(JordanType({3: 1, 1: 1}), ctx).ok
        assert validate_classical(JordanType({2: 2}), ctx).ok
        assert validate_classical(JordanType({1: 2, 2: 1}), ctx).ok
        assert validate_classical(JordanType({3: 2, 1: 2}), GroupContext("Sp", 8, 3)).ok

    def test_orthogonal_needs_even_count_of_even_sizes(self):
        ctx = GroupContext("SO", 5, 3)
        assert not validate_classical(JordanType({2: 1, 3: 1}), ctx).ok
        assert validate_classical(JordanType({1: 1, 2: 2}), ctx).ok
        assert validate_classical(JordanType({5: 1}), ctx).ok

    def test_special_linear_accepts_every_partition(self):
        ctx = GroupContext("SL", 4, 3)
        for t in partitions_of(4):
            assert validate_classical(t, ctx).ok

    def test_verdict_carries_no_reason_on_success(self):
        v = validate_classical(JordanType({2: 2}), GroupContext("Sp", 4, 3))
        assert v.reason is None


class TestRuleCase:
    @pytest.mark.parametrize(
        "blocks, p, expected",
        [
            ({3: 1}, 2, "i"),
            ({2: 1, 4: 1}, 3, "ii"),
            ({2: 2}, 2, "iii-a"),
            ({3: 1}, 3, "iii-b"),
            ({9: 1}, 3, "iii-b"),
            ({2: 1}, 2, "iii-c"),
            ({2: 1, 4: 1}, 2, "iii-c"),
        ],
    )
    def test_case_selection(self, blocks, p, expected):
        assert rule_case(JordanType(blocks), p) == expected

    @settings(max_examples=150, deadline=None)
    @given(small_types, st.sampled_from([2, 3, 5]))
    def test_cases_are_total_and_consistent(self, t, p):
        case = rule_case(t, p)
        n = t.dim
        a = alpha_of(t, p)
        if case == "i":
            assert n % p != 0
        elif case == "ii":
            assert n % p == 0 and a == 0
        else:
            assert a > 0
            if case == "iii-a":
                assert (n // p**a) % p == 0
            elif case == "iii-b":
                assert (n // p**a) % p != 0 and p**a > 2
            else:
                assert case == "iii-c"
                assert (n // p**a) % p != 0 and p**a == 2


class TestAdjointRule:
    def test_coprime_case_drops_a_fixed_line(self):
        ctx = GroupContext("SL", 3, 2)
        got = adjoint_rule(JordanType({1: 1, 4: 2}), JordanType({3: 1}), ctx)
        assert got == JordanType({4: 2})

    def test_divisible_semisimple_case_drops_two_fixed_lines(self):
        ctx = GroupContext("SL", 2, 2)
        got = adjoint_rule(JordanType({1: 4}), JordanType({1: 2}), ctx)
        assert got == JordanType({1: 2})

    def test_scaled_case_splits_two_blocks(self):
        ctx = GroupContext("SL", 4, 2)
        got = adjoint_rule(JordanType({2: 8}), JordanType({2: 2}), ctx)
        assert got == JordanType({1: 2, 2: 6})

    def test_large_single_block_case(self):
        ctx = GroupContext("SL", 3, 3)
        got = adjoint_rule(JordanType({3: 3}), JordanType({3: 1}), ctx)
        assert got == JordanType({1: 1, 3: 2})

    def test_tiny_block_case(self):
        ctx = GroupContext("SL", 2, 2)
        got = adjoint_rule(JordanType({2: 2}), JordanType({2: 1}), ctx)
        assert got == JordanType({2: 1})

    def test_rejects_carrier_without_the_needed_block(self):
        ctx = GroupContext("SL", 3, 2)
        with pytest.raises(ValueError, match="cannot remove"):
            adjoint_rule(JordanType({9: 1}), JordanType({3: 1}), ctx)

    def test_rejects_non_linear_context(self):
        with pytest.raises(ValueError, match="SL context"):
            adjoint_rule(JordanType({1: 1, 4: 2}), JordanType({3: 1}), GroupContext("Sp", 4, 3))

    def test_rejects_dimension_mismatch(self):
        ctx = GroupContext("SL", 3, 2)
        with pytest.raises(ValueError, match="dimension"):
            adjoint_rule(JordanType({1: 1, 4: 2}), JordanType({2: 1}), ctx)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_constructed_action_for_small_ranks(self, p):
        for n in range(2, 6):
            ctx = GroupContext("SL", n, p)
            for t in partitions_of(n):
                expected = jordan_type_of(build_adjoint_action(t, p))
                got = adjoint_rule(tensor_dual_type(t, p), t, ctx)
                assert got == expected, (t, p)

    @settings(max_examples=60, deadline=None)
    @given(small_types, st.sampled_from([2, 3, 5]))
    def test_output_dimension(self, t, p):
        n = t.dim
        if n < 2:
            return
        ctx = GroupContext("SL", n, p)
        got = adjoint_rule(tensor_dual_type(t, p), t, ctx)
        assert got.dim == n * n - (2 if n % p == 0 else 1)


class TestSquareRules:
    def test_wrong_kind_is_rejected(self):
        slctx = GroupContext("SL", 4, 3)
        with pytest.raises(ValueError, match="Sp context"):
            sp_w2_rule(JordanType({1: 1}), JordanType({2: 2}), slctx)
        with pytest.raises(ValueError, match="SO context"):
            so_2w1_rule(JordanType({1: 1}), JordanType({1: 5}), slctx)

    def test_invalid_classical_type_is_rejected(self):
        ctx = GroupContext("Sp", 4, 3)
        with pytest.raises(ValueError, match="impossible in Sp"):
            sp_w2_rule(JordanType({1: 1}), JordanType({3: 1, 1: 1}), ctx)
        octx = GroupContext("SO", 5, 3)
        with pytest.raises(ValueError, match="impossible in SO"):
            so_2w1_rule(JordanType({1: 1}), JordanType({2: 1, 3: 1}), octx)

    @pytest.mark.parametrize("blocks, n", [({2: 2}, 4), ({1: 2, 2: 1}, 4), ({1: 4}, 4)])
    def test_symplectic_piece_complements_the_symmetric_square(self, blocks, n):
        p = 3
        t = JordanType(blocks)
        ctx = GroupContext("Sp", n, p)
        slctx = GroupContext("SL", n, p)
        adj = adjoint_rule(tensor_dual_type(t, p), t, slctx)
        piece = sp_w2_rule(ext2_type(t, p), t, ctx)
        assert piece + sym2_type(t, p) == adj

    @pytest.mark.parametrize("blocks, n", [({5: 1}, 5), ({1: 1, 2: 2}, 5), ({1: 5}, 5)])
    def test_orthogonal_piece_complements_the_exterior_square(self, blocks, n):
        p = 3
        t = JordanType(blocks)
        ctx = GroupContext("SO", n, p)
        slctx = GroupContext("SL", n, p)
        adj = adjoint_rule(tensor_dual_type(t, p), t, slctx)
        piece = so_2w1_rule(sym2_type(t, p), t, ctx)
        assert piece + ext2_type(t, p) == adj

