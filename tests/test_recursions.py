"""Tests for the closed-form decomposition rules for tensor products of blocks.

The oracle answers tensor pairs through these rules, so each is refereed by
the graded elimination engine (`helpers.graded_engine`), never by
`tensor_block_type`, which would compare a rule with itself.
"""

import pytest

from jordanblocks import JordanType, clebsch_gordan, free_rule
from jordanblocks.recursions import gpx_scale, reflect_rule, two_level_rule

from helpers import fold_power, graded_engine

PRIMES = [2, 3, 5]


class TestGpxScale:
    def test_scales_sizes_and_multiplicities(self):
        assert gpx_scale(JordanType({1: 1}), 1, 2) == JordanType({2: 2})
        assert gpx_scale(JordanType({3: 1, 1: 1}), 1, 3) == JordanType({9: 3, 3: 3})

    def test_exponent_zero_is_the_identity(self):
        t = JordanType({2: 3, 5: 1})
        assert gpx_scale(t, 0, 7) == t

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            gpx_scale(JordanType({1: 1}), -1, 2)

    def test_dimension_scales_by_the_square(self):
        t = JordanType({2: 1, 3: 2})
        assert gpx_scale(t, 2, 3).dim == t.dim * 81

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_oracle_after_scaling_both_factors(self, p):
        for m in range(1, 5):
            for n in range(1, 5):
                base = graded_engine(m, n, p)
                scaled = graded_engine(p * m, p * n, p)
                assert gpx_scale(base, 1, p) == scaled

    def test_double_scaling_step(self):
        base = graded_engine(2, 3, 2)
        assert gpx_scale(base, 2, 2) == graded_engine(8, 12, 2)


class TestReflectRule:
    def test_worked_examples(self):
        # 2 < 3 < 2 + 2 folds onto (1, 1); 3 < 4 < 2 + 3 folds onto (2, 1)
        assert reflect_rule(2, 2, 3, JordanType({1: 1})) == JordanType({1: 1, 3: 1})
        assert reflect_rule(2, 3, 2, JordanType({2: 1})) == JordanType({4: 1, 2: 1})

    def test_rejects_a_pair_no_power_separates(self):
        with pytest.raises(ValueError, match="no power of 5"):
            reflect_rule(1, 1, 5, JordanType({1: 1}))
        # 8 is not below 4 + 4
        with pytest.raises(ValueError, match="no power of 2"):
            reflect_rule(4, 4, 2, JordanType({4: 4}))

    def test_rejects_a_folded_type_of_the_wrong_dimension(self):
        # (2, 2) at p = 3 folds onto (1, 1), of dimension 1
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            reflect_rule(2, 2, 3, JordanType({1: 2}))

    def test_symmetric_in_the_factors(self):
        folded = graded_engine(2, 1, 5)
        assert reflect_rule(3, 4, 5, folded) == reflect_rule(4, 3, 5, folded)
        assert reflect_rule(3, 4, 5, folded) == JordanType({5: 2, 2: 1})

    def test_sweep_agrees_with_the_oracle(self):
        applicable = 0
        for p in PRIMES:
            for m in range(1, 11):
                for n in range(1, 11):
                    q = fold_power(m, n, p)
                    if q is None:
                        continue
                    applicable += 1
                    got = reflect_rule(m, n, p, graded_engine(q - n, q - m, p))
                    assert got == graded_engine(m, n, p), (m, n, p)
                    assert got.dim == m * n
        assert applicable == 69


def engine_at(p: int):
    """The lookup two_level_rule takes, answered by elimination at p."""
    return lambda a, b: graded_engine(a, b, p)


class TestTwoLevelRule:
    def test_worked_examples(self):
        # 3 = 0 * 3 + 3 and 6 = 1 * 3 + 3: W_1 V_3 times W_2 V_3, three blocks of 6
        assert two_level_rule(3, 6, 3, engine_at(3)) == JordanType({6: 3})
        assert two_level_rule(4, 4, 3, engine_at(3)) == JordanType({1: 1, 3: 1, 5: 1, 7: 1})
        assert two_level_rule(2, 5, 2, engine_at(2)) == JordanType({4: 1, 6: 1})

    def test_rejects_pairs_outside_its_domain(self):
        # no power of 3 lies at or above 3 and below 2: Clebsch-Gordan's regime
        with pytest.raises(ValueError, match="two-level"):
            two_level_rule(2, 2, 3, engine_at(3))
        # q = 4 and 5 + 6 > 2 * 4
        with pytest.raises(ValueError, match="two-level"):
            two_level_rule(5, 6, 2, engine_at(2))

    def test_a_wrong_lookup_is_caught(self):
        # the characteristic-zero ladder is not J_a (x) J_b at p = 3
        with pytest.raises(AssertionError, match="negative coefficient"):
            two_level_rule(3, 5, 3, clebsch_gordan)

    def test_asks_only_for_pairs_within_one_level(self):
        asked = []

        def lookup(a, b):
            asked.append((a, b))
            return graded_engine(a, b, 3)

        # q = 9: 11 = 9 + 2 and 13 = 9 + 4
        assert two_level_rule(11, 13, 3, lookup) == graded_engine(11, 13, 3)
        assert asked and max(max(pair) for pair in asked) <= 9

    def test_sweep_agrees_with_the_engine(self):
        applicable = 0
        for p in PRIMES:
            for m in range(1, 17):
                for n in range(1, 17):
                    try:
                        got = two_level_rule(m, n, p, engine_at(p))
                    except ValueError:
                        continue
                    applicable += 1
                    assert got == graded_engine(m, n, p), (m, n, p)
        assert applicable == 460


class TestFreeRule:
    def test_worked_example(self):
        assert free_rule(3, 2, 2) == JordanType({4: 3})

    def test_full_factor_gives_a_square(self):
        assert free_rule(9, 2, 3) == JordanType({9: 9})

    def test_rejects_factor_larger_than_the_block(self):
        with pytest.raises(ValueError):
            free_rule(5, 1, 3)

    def test_rejects_non_positive_exponent(self):
        with pytest.raises(ValueError):
            free_rule(1, 0, 3)

    def test_agrees_with_the_oracle_for_all_admissible_factors(self):
        cases = [(2, a) for a in (1, 2, 3, 4)] + [(3, a) for a in (1, 2, 3)] + [(5, a) for a in (1, 2)]
        for p, alpha in cases:
            q = p**alpha
            for m in range(1, q + 1):
                got = free_rule(m, alpha, p)
                assert got == JordanType({q: m})
                assert got == graded_engine(m, q, p), (m, q, p)


class TestClebschGordan:
    def test_one_dimensional_factor_is_neutral(self):
        assert clebsch_gordan(1, 6) == JordanType({6: 1})

    def test_two_by_two(self):
        assert clebsch_gordan(2, 2) == JordanType({1: 1, 3: 1})

    def test_sizes_step_down_by_two(self):
        t = clebsch_gordan(4, 6)
        assert t.sizes == (3, 5, 7, 9)
        assert all(t.multiplicity(s) == 1 for s in t.sizes)

    def test_block_count_is_the_smaller_factor(self):
        assert clebsch_gordan(3, 5).block_count == 3
        assert clebsch_gordan(5, 3).block_count == 3

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0, 2)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_matches_the_oracle_below_the_characteristic(self, p):
        for m in range(1, 7):
            for n in range(1, 7):
                if m + n - 1 > p:
                    continue
                assert clebsch_gordan(m, n) == graded_engine(m, n, p), (m, n, p)

    def test_generic_answer_fails_in_small_characteristic(self):
        assert clebsch_gordan(2, 2) != graded_engine(2, 2, 2)
        assert clebsch_gordan(3, 3) != graded_engine(3, 3, 3)

    def test_bound_is_sufficient_but_not_sharp(self):
        # at (2, 4) mod 3 the generic decomposition happens to survive
        assert clebsch_gordan(2, 4) == graded_engine(2, 4, 3)
