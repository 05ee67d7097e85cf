"""Tests for the adjoint construction, its split verify route, and the
paper's proof model in `helpers`: shift closed forms and the delta ladder."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

import helpers
from helpers import (
    as_pairs,
    binom_mod_p,
    delta,
    dual_shift,
    ladder_failure,
    matrix_power,
    tensor_shift,
    tensor_x_matrix,
)
from jordanblocks import (
    GroupContext,
    JordanType,
    build_report,
    partitions_of,
)
from jordanblocks import construction, oracle, recursions, rules
from jordanblocks.construction import build_adjoint_action
from jordanblocks.linalg import _working_dtype, block_diagonal, dual_action, jordan_block, kronecker
from jordanblocks.oracle import jordan_type_of
from jordanblocks.partitions import alpha_of, nu_p


class TestXPowerOnDual:
    def test_small_literal(self):
        # X e_2* = -e_3* + e_4* inside a size four block
        assert dual_shift(1, 2, 4, 3) == {3: 2, 4: 1}

    def test_power_beyond_reach_vanishes(self):
        assert dual_shift(4, 1, 4, 3) == {}

    def test_out_of_range_index_is_zero(self):
        assert dual_shift(1, 9, 4, 3) == {}
        assert dual_shift(2, 0, 4, 3) == {}

    @pytest.mark.parametrize("n, p", [(4, 2), (5, 3), (6, 5)])
    def test_matches_the_dual_shift_matrix(self, n, p):
        D = dual_action(jordan_block(n, p))
        X = (D.array - np.eye(n, dtype=np.int64)) % p
        for k in range(1, n + 1):
            P = matrix_power(X, k, p)
            for i in range(1, n + 1):
                expected = {j + 1: int(c) for j, c in enumerate(P[i - 1]) if c}
                assert dual_shift(k, i, n, p) == expected, (k, i)


class TestDelta:
    def test_level_zero_is_the_diagonal(self):
        assert np.array_equal(delta(0, 4, 2), np.eye(4, dtype=np.int64).ravel())

    def test_level_one_alternates_down_each_segment(self):
        assert as_pairs(delta(1, 3, 3), 3) == {(1, 1): 1, (2, 1): 2, (3, 1): 1}

    def test_level_one_with_two_segments(self):
        assert as_pairs(delta(1, 6, 3), 6) == {
            (1, 1): 1,
            (2, 1): 2,
            (3, 1): 1,
            (4, 4): 1,
            (5, 4): 2,
            (6, 4): 1,
        }

    def test_spans_all_blocks(self):
        # on V = V_2 + V_2, delta_1 is one copy per diagonal piece V_r (x) V_r*,
        # and X on the whole of V (x) V* takes it to delta_0, the identity
        t, n = JordanType({2: 2}), 4
        whole = np.zeros((n, n), dtype=np.int64)
        for off in (0, 2):
            whole[off : off + 2, off : off + 2] = delta(1, 2, 2).reshape(2, 2)
        assert as_pairs(whole.ravel(), n) == {(1, 1): 1, (2, 1): 1, (3, 3): 1, (4, 3): 1}
        assert np.array_equal(whole.ravel() @ tensor_x_matrix(t, 2) % 2, np.eye(n, dtype=np.int64).ravel())

    def test_rejects_level_beyond_the_type(self):
        with pytest.raises(ValueError, match="does not divide"):
            delta(1, 3, 2)
        with pytest.raises(ValueError, match="does not divide"):
            delta(2, 3, 3)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            delta(-1, 2, 2)

    def test_trace_counts_segments(self):
        # the trace of the top delta is the segment count n / p^alpha
        for blocks, p in (({3: 1}, 3), ({6: 1}, 3), ({2: 2}, 2), ({4: 1, 8: 1}, 2)):
            t = JordanType(blocks)
            a = alpha_of(t, p)
            trace = sum(m * int(delta(a, d, p)[:: d + 1].sum()) for d, m in t)
            assert trace % p == (t.dim // p**a) % p


class TestXPowerOnTensor:
    def test_expands_a_single_step(self):
        # X(v (x) w) = Xv (x) w + v (x) Xw + Xv (x) Xw on basis vectors
        X = tensor_x_matrix(JordanType({3: 1}), 3)
        assert tensor_shift(1, 2, 2, 3, 3, 3) == as_pairs(X[1 * 3 + 1], 3)

    def test_annihilated_left_factor_leaves_the_dual_terms(self):
        # e_1 dies under X, so only the v (x) X^k w summand survives
        expected = {(1, j): c for j, c in dual_shift(2, 1, 4, 5).items()}
        assert tensor_shift(2, 1, 1, 4, 4, 5) == expected

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            tensor_shift(0, 1, 1, 2, 2, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_matrix_powers_on_basis_pairs(self, p):
        # V = V_2 + V_3: every piece V_r (x) V_s*, cross pieces included
        sizes, offsets, n = (2, 3), (0, 2), 5
        X = tensor_x_matrix(JordanType({2: 1, 3: 1}), p)
        for k in (1, 2, 3):
            P = matrix_power(X, k, p)
            for r, ro in zip(sizes, offsets):
                for s, so in zip(sizes, offsets):
                    for i in range(1, r + 1):
                        for j in range(1, s + 1):
                            got = tensor_shift(k, i, j, r, s, p)
                            want = as_pairs(P[(ro + i - 1) * n + so + j - 1], n)
                            assert {(ro + a, so + b): c for (a, b), c in got.items()} == want, (k, r, s, i, j)


class TestVerifyDeltaLadder:
    @pytest.mark.parametrize(
        "blocks, p",
        [({2: 2}, 2), ({4: 1, 2: 1}, 2), ({9: 1}, 3), ({3: 1, 6: 1}, 3), ({5: 1}, 5)],
    )
    def test_ladder_holds(self, blocks, p):
        assert ladder_failure(JordanType(blocks), p) is None

    def test_vacuous_when_no_ladder_exists(self):
        # a type with a size coprime to p has no levels to check
        assert ladder_failure(JordanType({3: 1, 2: 1}), 3) is None

    def test_reports_the_failing_level(self, monkeypatch):
        monkeypatch.setattr(helpers, "block_x", lambda d, p: sparse.csr_matrix((d * d, d * d), dtype=np.int64))
        assert ladder_failure(JordanType({2: 2}), 2) == 1


class TestBuildAdjointAction:
    def test_coprime_dimension_drops_one(self):
        A = build_adjoint_action(JordanType({1: 1, 2: 1}), 2)
        assert A.rows == 9 - 1

    def test_divisible_dimension_drops_two(self):
        A = build_adjoint_action(JordanType({1: 1, 3: 1}), 2)
        assert A.rows == 16 - 2

    def test_regular_unipotent_in_rank_one(self):
        A = build_adjoint_action(JordanType({2: 1}), 2)
        assert jordan_type_of(A) == JordanType({2: 1})
        B = build_adjoint_action(JordanType({2: 1}), 3)
        assert jordan_type_of(B) == JordanType({3: 1})

    def test_mixed_type_example(self):
        A = build_adjoint_action(JordanType({1: 1, 3: 1}), 2)
        assert jordan_type_of(A) == JordanType({3: 2, 4: 2})

    def test_result_is_unipotent_of_full_size(self):
        t = JordanType({2: 1, 3: 1})
        A = build_adjoint_action(t, 7)
        assert jordan_type_of(A).dim == t.dim**2 - 1

    def test_rejects_small_and_empty_types(self):
        with pytest.raises(ValueError, match="n >= 2"):
            build_adjoint_action(JordanType({1: 1}), 2)
        with pytest.raises(ValueError):
            build_adjoint_action(JordanType({}), 3)

    def test_diagonal_vector_is_fixed_by_the_tensor_action(self):
        # the invariant line and the invariant functional both come from the identity
        for blocks, p in (({2: 2}, 2), ({3: 1, 1: 1}, 2), ({3: 1}, 3)):
            t = JordanType(blocks)
            d = np.eye(t.dim, dtype=np.int64).ravel()
            X = tensor_x_matrix(t, p)
            assert not ((d @ X) % p).any()
            assert not ((X @ d) % p).any()

    def test_adjoint_type_dimensions_add_up(self):
        for blocks, p in (({2: 1, 3: 1}, 2), ({4: 1}, 2), ({2: 2, 1: 1}, 5)):
            t = JordanType(blocks)
            drop = 2 if t.dim % p == 0 else 1
            assert jordan_type_of(build_adjoint_action(t, p)).dim == t.dim**2 - drop


def test_clear_memos_leaves_every_memo_cold():
    # an SL and an Sp check fill the pair, square and piece memos
    for kind, blocks in (("SL", {2: 1, 3: 1}), ("Sp", {2: 2})):
        t = JordanType(blocks)
        assert build_report(t, GroupContext(kind, t.dim, 3), verify=True).verified
    memos = (oracle._tensor_block_type, oracle._square_single, construction._piece_ranks)
    assert all(memo.cache_info().currsize for memo in memos)
    helpers.clear_memos()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]


def verify_peak(t: JordanType, p: int) -> tuple[bool, int]:
    """build_report(verify=True) from cold caches: (verified, tracemalloc peak)."""
    helpers.clear_memos()
    tracemalloc.start()
    try:
        report = build_report(t, GroupContext("SL", t.dim, p), verify=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report.verified, peak


@pytest.fixture
def echelon_widths(monkeypatch):
    """The width of every `_echelon` call, watched through both modules' names."""
    widths = []
    echelon = oracle._echelon

    def recorded(work, *args):
        widths.append(work.shape[1])
        return echelon(work, *args)

    monkeypatch.setattr(construction, "_echelon", recorded)
    monkeypatch.setattr(oracle, "_echelon", recorded)
    return widths


class TestVerifyMemory:
    @pytest.mark.parametrize("blocks", [{1: 200}, {2: 10, 3: 20}], ids=["1^200", "2^10,3^20"])
    def test_many_small_blocks_stay_small(self, blocks):
        # only the pieces and the per-size invariants are eliminated, never n^2-square
        verified, peak = verify_peak(JordanType(blocks), 2)
        assert verified is True
        assert peak < 8_000_000

    @pytest.mark.parametrize("blocks", [{14: 10}, {7: 4, 14: 6}], ids=["14^10", "7^4,14^6"])
    def test_the_diagonal_part_is_never_built(self, blocks):
        # the diagonal part is 1960-square for 14^10 and 1372-square for
        # 7^4, 14^6; its ranks come from the (d, d) pieces and per-size invariants
        verified, peak = verify_peak(JordanType(blocks), 7)
        assert verified is True
        assert peak < 8_000_000

    def test_the_per_size_invariants_stay_small(self):
        # End(V_40) is 1600-dimensional; its piece ranks and invariants come
        # from one call on 62 439 graded rows 42 wide
        tracemalloc.start()
        try:
            assert construction._piece_ranks.__wrapped__(40, 40, 2)[1] == (7, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24_000_000


class TestBinomialRows:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10007])
    def test_pascal_rows_match_lucas(self, p):
        # every power a piece 61 wide reaches, 0 to 120, at every shift
        width = 61
        k, shift = (a.ravel() for a in np.mgrid[: 2 * width - 1, :width])
        got = construction._binomial_rows(k, shift, width, p, _working_dtype(p, 2))
        lucas = np.array([[binom_mod_p(a, b, p) for b in range(width)] for a in range(2 * width - 1)])
        below = np.arange(width) - shift[:, None]  # C(k, c - shift) at column c
        want = np.where(below >= 0, lucas[k[:, None], np.maximum(below, 0)], 0)
        assert np.array_equal(got, want)


class TestSplitRoute:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_match_the_explicit_tensor_product(self, p):
        for s in range(1, 13):
            dual = dual_action(jordan_block(s, p))
            for r in range(1, s + 1):
                want = jordan_type_of(kronecker(jordan_block(r, p), dual))
                ranks, invariants = construction._piece_ranks(r, s, p)
                assert oracle._blocks_from_ranks(ranks) == want, (r, s)
                assert (invariants is None) == (r != s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_eliminate_at_most_min_r_s_wide(self, echelon_widths, p):
        # V_12 tensor V_12^* is 144-dimensional and V_12 tensor V_13^* is
        # 156-dimensional, but their graded blocks are at most 12 wide; the
        # diagonal piece adds the two columns of its invariant problem
        construction._piece_ranks.__wrapped__(12, 13, p)
        assert len(echelon_widths) == 1 and echelon_widths[0] <= 12, echelon_widths
        construction._piece_ranks.__wrapped__(12, 12, p)
        assert len(echelon_widths) == 2 and echelon_widths[1] <= 14, echelon_widths

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_invariants_eliminate_once_at_most_d_plus_2_wide(self, echelon_widths, p):
        # End(V_24) is 576-dimensional, but its ranks and invariants come
        # from one call on rows 26 wide
        construction._piece_ranks.__wrapped__(24, 24, p)
        assert len(echelon_widths) == 1 and echelon_widths[0] <= 26, echelon_widths

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_invariants_match_the_chained_elimination(self, p):
        # the graded kernel against eliminations over all of End(V_d)
        for d in range(1, 25):
            want = helpers.chained_diagonal_invariants(d, p)
            assert construction._piece_ranks.__wrapped__(d, d, p)[1] == want, d

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_invariants_follow_the_delta_ladder(self, p):
        # delta_nu certifies I in im X^(p^nu - 1), and its trace is d / p^nu
        for d in range(1, 41):
            q = p ** nu_p(d, p)
            assert construction._piece_ranks(d, d, p)[1] == (q - 1, d // q % p), d

    def test_wide_dtype_prime_agrees_with_the_whole_module(self):
        p = 1_000_003
        for n in range(2, 7):
            for t in partitions_of(n):
                want = jordan_type_of(build_adjoint_action(t, p))
                assert construction._split_adjoint_type(t, p)[1] == want, t.render()

    def test_no_rule_or_closed_form_is_used(self, monkeypatch):
        # stub every rule and closed form in each module that binds it, and
        # start from cold memos, so that a call from anywhere would raise
        def forbidden(*args, **kwargs):
            raise AssertionError("the SL verify route reached a rule or closed form")

        stubbed = [(rules, "_rule"), (rules, "_case"), (oracle, "_tensor_block_type"), (oracle, "_square_single")]
        stubbed += [(recursions, name) for name in (
            "clebsch_gordan", "gpx_scale", "free_rule", "reflect_rule", "two_level_rule"
        )]
        for module, name in stubbed:
            original = getattr(module, name)
            for binder in (construction, oracle, recursions, rules):
                if getattr(binder, name, None) is original:
                    monkeypatch.setattr(binder, name, forbidden)
        helpers.clear_memos()
        # at p = 5, type 5 has h = 4 with p | n, so the trace correction c counts
        for p in (2, 3, 5):
            for n in range(2, 8):
                for t in partitions_of(n):
                    u = block_diagonal([jordan_block(d, p) for d, m in t for _ in range(m)])
                    tensor = jordan_type_of(kronecker(u, dual_action(u)))
                    want = tensor, jordan_type_of(build_adjoint_action(t, p))
                    assert construction._split_adjoint_type(t, p) == want, (t.render(), p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_tensor_half_matches_the_tensor_engine(self, p):
        # the rank sum before the diagonal correction is V tensor V* itself
        for n in range(2, 15):
            for t in partitions_of(n):
                want = oracle.tensor_dual_type(t, p)
                assert construction._split_adjoint_type(t, p)[0] == want, t.render()
