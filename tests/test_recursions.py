"""Tests for the closed-form decomposition rules for tensor products of blocks.

The oracle answers tensor pairs through these rules, so each is refereed by
the graded elimination engine (`helpers.graded_engine`), never by
`tensor_block_type`, which would compare a rule with itself.
"""

import pytest

from jordanblocks import (
    JordanType,
    OracleCapError,
    clebsch_gordan,
    free_rule,
)
from jordanblocks.recursions import gpx_scale, reflect_rule

from helpers import graded_engine

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
        assert reflect_rule(2, 2, 3) == JordanType({1: 1, 3: 1})
        assert reflect_rule(2, 3, 2) == JordanType({4: 1, 2: 1})

    def test_returns_none_when_no_power_fits(self):
        assert reflect_rule(1, 1, 5) is None
        assert reflect_rule(4, 4, 2) is None

    def test_symmetric_in_the_factors(self):
        assert reflect_rule(3, 4, 2) == reflect_rule(4, 3, 2)

    def test_cap_is_forwarded_to_the_complement_lookup(self):
        # the folded pair (28, 19) is too big for the default entry budget
        with pytest.raises(OracleCapError):
            reflect_rule(21, 30, 7)
        got = reflect_rule(21, 30, 7, max_entries=300_000)
        assert got is not None
        assert got.dim == 21 * 30

    def test_sweep_agrees_with_the_oracle(self):
        applicable = 0
        for p in PRIMES:
            for m in range(1, 11):
                for n in range(1, 11):
                    got = reflect_rule(m, n, p)
                    if got is None:
                        continue
                    applicable += 1
                    assert got == graded_engine(m, n, p), (m, n, p)
                    assert got.dim == m * n
        assert applicable == 69


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
