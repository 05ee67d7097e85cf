"""Tests for Jordan types, partitions, and the Lucas binomial mod p in `helpers`."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanblocks import (
    GroupContext,
    JordanType,
    build_report,
    ext2_type,
    free_rule,
    parse_jordan_type,
    partitions_of,
    sym2_type,
    tensor_block_type,
    tensor_dual_type,
)
from jordanblocks.construction import build_adjoint_action
from jordanblocks.partitions import alpha_of, characteristic, nu_p
from helpers import binom_mod_p, clear_memos

PRIMES = [2, 3, 5, 7]

# every public entry point that takes a prime (or, for GroupContext and
# tensor_block_type, a dimension), called with 3 in that place
TAKES_AN_INTEGER = {
    "tensor_block_type": lambda p: tensor_block_type(2, 3, p),
    "tensor_block_type.m": lambda m: tensor_block_type(m, 4, 3),
    "tensor_block_type.n": lambda n: tensor_block_type(2, n, 3),
    "tensor_dual_type": lambda p: tensor_dual_type(JordanType({2: 1, 3: 1}), p),
    "ext2_type": lambda p: ext2_type(JordanType({2: 2}), p),
    "sym2_type": lambda p: sym2_type(JordanType({2: 2}), p),
    "free_rule": lambda p: free_rule(2, 1, p),
    "build_adjoint_action": lambda p: build_adjoint_action(JordanType({2: 1, 1: 1}), p).array.tolist(),
    "GroupContext.p": lambda p: json.dumps(build_report(JordanType({3: 1}), GroupContext("SL", 3, p)).to_json_dict()),
    "GroupContext.n": lambda n: json.dumps(build_report(JordanType({3: 1}), GroupContext("SL", n, 3)).to_json_dict()),
}

jordan_types = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    min_size=1,
    max_size=4,
).map(JordanType)


class TestJordanType:
    def test_basic_accessors(self):
        t = JordanType({1: 2, 3: 1})
        assert t.dim == 5
        assert t.block_count == 3
        assert t.sizes[0] == 1
        assert t.max_size == 3
        assert t.sizes == (1, 3)
        assert t.multiplicity(1) == 2
        assert t.multiplicity(3) == 1
        assert t.multiplicity(2) == 0
        assert not t.is_multiplicity_free()

    def test_multiplicity_free(self):
        assert JordanType({2: 1, 5: 1}).is_multiplicity_free()
        assert not JordanType({2: 2}).is_multiplicity_free()

    def test_iteration_is_ascending(self):
        t = JordanType({5: 1, 1: 3, 3: 2})
        assert list(t) == [(1, 3), (3, 2), (5, 1)]

    def test_union_adds_multiplicities(self):
        t = JordanType({1: 2, 3: 1}) + JordanType({1: 1, 2: 1})
        assert t == JordanType({1: 3, 2: 1, 3: 1})

    def test_render(self):
        assert JordanType({1: 2, 3: 1}).render() == "1^2, 3"
        assert JordanType({4: 1}).render() == "4"

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            JordanType({0: 1})
        with pytest.raises(ValueError):
            JordanType({2: 0})
        with pytest.raises(ValueError):
            JordanType({-3: 1})

    @pytest.mark.parametrize("blocks", [{2.7: 1}, [(2, 1.9)], {"3": 2}, {2.0: 1}])
    def test_rejects_non_integer_sizes_and_multiplicities(self, blocks):
        # neither truncated (2.7 -> 2) nor parsed ("3" -> 3)
        with pytest.raises(TypeError, match="must be integers"):
            JordanType(blocks)

    def test_accepts_numpy_integers_as_python_ints(self):
        t = JordanType({np.int64(3): np.int32(2), np.uint8(1): 1})
        assert t == JordanType({1: 1, 3: 2})
        assert all(type(v) is int for pair in t for v in pair)

    def test_empty_type_is_allowed(self):
        t = JordanType({})
        assert t.dim == 0
        assert t.block_count == 0

    @given(jordan_types)
    def test_parse_render_round_trip(self, t):
        assert parse_jordan_type(t.render()) == t

    @given(jordan_types, jordan_types)
    def test_union_dim_is_additive(self, a, b):
        assert (a + b).dim == a.dim + b.dim


class TestParse:
    def test_exponent_and_plain_terms(self):
        assert parse_jordan_type("3, 1^2") == JordanType({1: 2, 3: 1})
        assert parse_jordan_type("1^2,3") == JordanType({1: 2, 3: 1})

    def test_repeated_terms_accumulate(self):
        assert parse_jordan_type("2, 2, 2^2") == JordanType({2: 4})

    # "\u0663" is ARABIC-INDIC DIGIT THREE and "\uff11^\uff12" is FULLWIDTH 1^2:
    # digits, but not ASCII ones
    @pytest.mark.parametrize(
        "text", ["", "junk", "2^", "^3", "0^2", "2^0", "-1", "\u0663, \uff11^\uff12", "\u0663"]
    )
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            parse_jordan_type(text)


class TestCharacteristic:
    @pytest.mark.parametrize("p", PRIMES + [11, 13, 97])
    def test_accepts_primes(self, p):
        q = characteristic(p)
        assert q == p
        assert isinstance(q, int)

    @pytest.mark.parametrize("p", [-2, 0, 1, 4, 6, 9, 15, 91])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError):
            characteristic(p)

    def test_primality_is_decided_only_where_it_is_exact(self):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin at all
        # twelve bases 2..37; every 64-bit integer lies below it
        psi12 = 318665857834031151167461
        with pytest.raises(ValueError, match=f"{psi12}.*{psi12}"):
            characteristic(psi12)
        assert characteristic(18446744073709551557) == 2**64 - 59

    @pytest.mark.parametrize("p", [3, np.int8(3), np.int64(3), np.uint64(3)])
    def test_returns_a_plain_int(self, p):
        assert type(characteristic(p)) is int


class TestIntegerArguments:
    # 3.9 would be truncated to 3 and "3" parsed as 3; neither may be. 2.0
    # is refused for its type before sym2_type refuses p = 2 for its value
    @pytest.mark.parametrize("value", [3.0, 3.9, "3", 2.0])
    @pytest.mark.parametrize("entry", sorted(TAKES_AN_INTEGER))
    def test_floats_and_strings_are_refused(self, entry, value):
        # on a cold memo, and again once the integer call has warmed it: the
        # memo key (3.0, 4, 3) equals (3, 4, 3)
        clear_memos()
        with pytest.raises(TypeError):
            TAKES_AN_INTEGER[entry](value)
        TAKES_AN_INTEGER[entry](3)
        with pytest.raises(TypeError):
            TAKES_AN_INTEGER[entry](value)

    @pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3)])
    @pytest.mark.parametrize("entry", sorted(TAKES_AN_INTEGER))
    def test_numpy_integers_are_accepted_and_serialise(self, entry, value):
        # a report's JSON needs GroupContext to store plain ints
        assert TAKES_AN_INTEGER[entry](value) == TAKES_AN_INTEGER[entry](3)


class TestValuations:
    def test_nu_p_basics(self):
        assert nu_p(18, 3) == 2
        assert nu_p(7, 2) == 0
        assert nu_p(32, 2) == 5

    def test_nu_p_rejects_non_positive(self):
        with pytest.raises(ValueError):
            nu_p(0, 3)
        with pytest.raises(ValueError):
            nu_p(-4, 2)

    def test_alpha_of_is_gcd_valuation(self):
        assert alpha_of(JordanType({6: 1, 9: 2}), 3) == 1
        assert alpha_of(JordanType({9: 1, 27: 1}), 3) == 2
        assert alpha_of(JordanType({5: 1}), 3) == 0
        assert alpha_of(JordanType({4: 3}), 2) == 2

    def test_alpha_of_rejects_empty(self):
        with pytest.raises(ValueError):
            alpha_of(JordanType({}), 2)

    @given(jordan_types, st.sampled_from(PRIMES))
    def test_alpha_divides_every_size(self, t, p):
        a = alpha_of(t, p)
        assert all(size % p**a == 0 for size in t.sizes)


class TestBinomModP:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_comb_on_a_grid(self, p):
        for a in range(40):
            for b in range(40):
                assert binom_mod_p(a, b, p) == math.comb(a, b) % p

    @pytest.mark.parametrize("p", PRIMES)
    def test_top_row_alternates_signs(self, p):
        # C(p-1, t) = (-1)^t mod p for 0 <= t < p
        for t in range(p):
            assert binom_mod_p(p - 1, t, p) == (-1) ** t % p

    def test_out_of_range_is_zero(self):
        assert binom_mod_p(3, 5, 7) == 0

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            binom_mod_p(-1, 0, 3)
        with pytest.raises(ValueError):
            binom_mod_p(2, -2, 3)

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
        st.sampled_from(PRIMES),
    )
    def test_agrees_with_comb(self, a, b, p):
        assert binom_mod_p(a, b, p) == math.comb(a, b) % p


class TestPartitionsOf:
    def test_counts_match_the_partition_numbers(self):
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in zip(range(1, 11), expected):
            assert sum(1 for _ in partitions_of(n)) == count

    def test_every_partition_has_the_right_dimension(self):
        for n in range(11):
            for t in partitions_of(n):
                assert t.dim == n

    def test_partitions_are_distinct(self):
        seen = list(partitions_of(8))
        assert len(seen) == len(set(seen))

    def test_order_runs_from_one_block_to_all_ones(self):
        parts = list(partitions_of(5))
        assert parts[0] == JordanType({5: 1})
        assert parts[-1] == JordanType({1: 5})

    def test_deterministic(self):
        assert list(partitions_of(7)) == list(partitions_of(7))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_whole_order_is_reverse_lexicographic(self, n):
        # brute force: every composition of n (a subset of the n - 1 cut
        # points) sorted into descending parts, then the distinct part
        # tuples in reverse lexicographic order
        partitions = set()
        for cuts in range(2 ** (n - 1)):
            parts, run = [], 1
            for i in range(n - 1):
                if cuts >> i & 1:
                    parts.append(run)
                    run = 0
                run += 1
            partitions.add(tuple(sorted(parts + [run], reverse=True)))
        want = [JordanType((part, 1) for part in parts) for parts in sorted(partitions, reverse=True)]
        assert list(partitions_of(n)) == want

    def test_zero_has_one_empty_partition(self):
        assert list(partitions_of(0)) == [JordanType({})]

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            list(partitions_of(-1))
