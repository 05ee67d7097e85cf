"""Tests for the adjoint construction, its split verify route, and the
paper's proof model in `helpers`: shift closed forms and the delta ladder."""

import random
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
    rref,
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
from jordanblocks.linalg import block_diagonal, dual_action, jordan_block, kronecker
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

    def sizes():
        memos = (oracle._tensor_block_type, oracle._square_single)
        kept = (construction._piece_memo, construction._series_memo)
        return [memo.cache_info().currsize for memo in memos] + [len(memo) for memo in kept]

    assert all(sizes())
    helpers.clear_memos()
    assert sizes() == [0, 0, 0, 0]


def one_piece(r: int, s: int, p: int) -> tuple[tuple[int, ...], tuple[int, int] | None]:
    """(ranks, invariants) of V_r tensor V_s^*, r <= s, eliminated alone and
    past the memo."""
    [piece] = construction._eliminate_pieces([(r, s)], p)
    return piece


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


def watch_echelon(monkeypatch, read) -> list:
    """read(work) for every `_echelon` call, watched through both modules' names."""
    seen = []
    echelon = oracle._echelon

    def recorded(work, *args):
        seen.append(read(work))
        return echelon(work, *args)

    monkeypatch.setattr(construction, "_echelon", recorded)
    monkeypatch.setattr(oracle, "_echelon", recorded)
    return seen


@pytest.fixture
def echelon_widths(monkeypatch):
    """The width of every `_echelon` call."""
    return watch_echelon(monkeypatch, lambda work: work.shape[1])


@pytest.fixture
def echelon_rows(monkeypatch):
    """The number of rows of every `_echelon` call."""
    return watch_echelon(monkeypatch, lambda work: work.shape[0])


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
        # End(V_40) is 1600-dimensional; its piece ranks come from 780
        # defect rows 39 wide in one call, and its invariants from no
        # elimination
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(40, 40, 2)[1] == (7, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_batched_pieces_stay_within_the_budget(self):
        # the 15 pieces of 36, ..., 40 hold 630 to 780 defect rows each,
        # 10 185 in all; the calls are cut between blocks under the byte
        # budget, where one call on all their graded rows peaked near 120 MB
        helpers.clear_memos()
        tracemalloc.start()
        try:
            construction._split_adjoint_type(JordanType({36: 1, 37: 1, 38: 1, 39: 1, 40: 1}), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_a_large_diagonal_piece_stays_small(self):
        # End(V_100) puts 4 950 defect rows 99 wide through `_echelon`;
        # one call on all of its 333 399 kept graded rows peaked near 256 MB
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(100, 100, 2)[1] == (3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_a_wide_diagonal_piece_ranks_only_its_middle_blocks(self, echelon_rows):
        # End(V_200) puts C(200, 2) = 19 900 defect rows 199 wide through
        # `_echelon`, one middle block per power, where the defects of its
        # kept blocks were 671 650 rows
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(200, 200, 2)[1] == (7, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(echelon_rows) == defect_rows(200, 200) == 19_900
        assert peak < 12_000_000


def series_mod_p(j: int, m: int, p: int) -> int:
    """[x^m](1 + x)^j mod p by Lucas: C(j, m) for j >= 0, and
    (-1)^m C(-j + m - 1, m) for j < 0."""
    if j >= 0:
        return binom_mod_p(j, m, p)
    return (-1) ** m * binom_mod_p(-j + m - 1, m, p) % p


class TestBinomialRows:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10007])
    def test_series_rows_match_lucas(self, p):
        # every order a piece 61 wide reaches, -120 to 120, at every offset
        # and column, read from a table built for 17 columns, from the one a
        # 61-wide call rebuilds it to, and from that kept table by a 17-wide
        # call again
        helpers.clear_memos()
        lucas = {j: [series_mod_p(j, m, p) for m in range(121)] for j in range(-120, 121)}
        for width in (17, 61, 17):
            most = 2 * width - 2
            j, offset, column = (a.ravel() for a in np.mgrid[-most : most + 1, :width, :width])
            windows = construction._series_windows(most, width, p)
            inside = offset + column < width  # the windows' promise
            got = windows[most + j, offset, column][inside]
            want = [lucas[a][b] for a, b in zip(j[inside].tolist(), (offset + column)[inside].tolist())]
            assert got.tolist() == want, width
        assert construction._series_memo[p].shape[0] == 2 * 120 + 1

    def test_the_kept_table_is_read_only(self):
        helpers.clear_memos()
        windows = construction._series_windows(10, 6, 3)
        kept = construction._series_memo[3]
        assert not windows.flags.writeable
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            windows[1, 3, 0] = 2

    def test_cold_calls_at_one_prime_build_the_series_once(self):
        # the second call is shorter and narrower than the first, so it reads
        # the series the first one kept; another prime builds its own
        helpers.clear_memos()
        first = construction._eliminate_pieces([(5, 7), (7, 7)], 3)
        kept = construction._series_memo[3]
        second = construction._eliminate_pieces([(2, 4), (4, 6), (6, 6)], 3)
        assert construction._series_memo[3] is kept
        construction._eliminate_pieces([(2, 4)], 5)
        assert construction._series_memo[3] is kept and set(construction._series_memo) == {3, 5}
        # and reads what a cold process would
        helpers.clear_memos()
        assert construction._eliminate_pieces([(2, 4), (4, 6), (6, 6)], 3) == second
        assert construction._eliminate_pieces([(5, 7), (7, 7)], 3) == first


def graded_block(r: int, s: int, k: int, d: int, p: int) -> np.ndarray:
    """X^k's block R_d -> R_(d+k) on k[x, v]/(x^r, v^s), rows and columns the
    valid exponents of x in ascending order: x^i v^(d-i) -> C(k, c - i) at x^c."""
    rows = [i for i in range(r) if 0 <= d - i < s]
    cols = [c for c in range(r) if 0 <= d + k - c < s]
    return np.array([[binom_mod_p(k, c - i, p) if c >= i else 0 for c in cols] for i in rows])


def kept_blocks(r: int, s: int):
    """(k, d, a, f) for every kept block of V_r tensor V_s^*, r <= s: k >= 1,
    2d <= top - k, sources of degree at most a = min(d, r - 1), and the
    terms below f = max(d + k - s + 1, 0) dropped."""
    top = r + s - 2
    for k in range(1, top + 1):
        for d in range(0, (top - k) // 2 + 1):
            yield k, d, min(d, r - 1), max(d + k - s + 1, 0)


def defect_rows(r: int, s: int) -> int:
    """Rows the middle blocks, d = floor((top - k) / 2), put through
    `_echelon`: none for a block with f = 0 or a = r - 1, else f rows of
    the defect matrix for k <= s and the block's own a + 1 rows for k > s."""
    return sum(
        0 if f == 0 or a == r - 1 else f if k <= s else a + 1
        for k, d, a, f in kept_blocks(r, s)
        if d == (r + s - 2 - k) // 2
    )


def defect_matrix(r: int, k: int, a: int, f: int, p: int) -> np.ndarray:
    """M[i, c] = [x^(c-i)](1 + x)^-k = (-1)^(c-i) C(k + c - i - 1, c - i)
    mod p, 0 for c < i, for 0 <= i < f and a < c < r."""
    return np.array(
        [[series_mod_p(-k, c - i, p) if c >= i else 0 for c in range(a + 1, r)] for i in range(f)],
        dtype=np.int64,
    ).reshape(f, r - 1 - a)


class TestGradedDuality:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_mirror_blocks_have_equal_rank(self, p):
        # x^i v^j <-> x^(r-1-i) v^(s-1-j) pairs R_d with R_(top-d), and both
        # blocks read C(k, c - i), so block (k, top - k - d) is block (k, d)
        # transposed; ranked by rref, not by the `_echelon` under test
        for s in range(1, 13):
            for r in range(1, s + 1):
                top = r + s - 2
                for k in range(1, top + 1):
                    for d in range(top - k + 1):
                        block, mirror = graded_block(r, s, k, d, p), graded_block(r, s, k, top - k - d, p)
                        assert np.array_equal(mirror, block[::-1, ::-1].T), (r, s, k, d)
                        assert len(rref(block, p)[1]) == len(rref(mirror, p)[1]), (r, s, k, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_the_middle_block_fixes_the_rank_of_each_power(self, p):
        # over the n = top + 1 - k degrees of X^k, block (k, d) has rank
        # min(d + 1, n - d, r, c), c the middle block's rank, a tent that
        # sums to c(n + 1 - c); ranked by rref, not by the `_echelon` under
        # test, over every block of every power
        for s in range(1, 13):
            for r in range(1, s + 1):
                top = r + s - 2
                for k in range(1, top + 1):
                    n = top + 1 - k
                    ranks = [len(rref(graded_block(r, s, k, d, p), p)[1]) for d in range(n)]
                    c = ranks[(top - k) // 2]
                    assert ranks == [min(d + 1, n - d, r, c) for d in range(n)], (r, s, k)
                    assert sum(ranks) == c * (n + 1 - c), (r, s, k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_block_has_rank_a_plus_1_minus_f_plus_its_defect(self, p):
        # (1 + x)^k is a unit mod x^r, so block (k, d) loses rank only where
        # x^i (1 + x)^-k, i < f, meets the sources; both ranked by rref, not
        # by the `_echelon` under test, over every kept block (13 192 in all)
        for s in range(1, 13):
            for r in range(1, s + 1):
                for k, d, a, f in kept_blocks(r, s):
                    block = graded_block(r, s, k, d, p)
                    assert block.shape[0] == a + 1, (r, s, k, d)
                    defect = len(rref(defect_matrix(r, k, a, f, p), p)[1])
                    assert len(rref(block, p)[1]) == a + 1 - f + defect, (r, s, k, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_eliminate_only_the_kept_half(self, echelon_rows, p):
        # all blocks would be 13 271 rows for (24, 24) and 1 794 for (12, 13),
        # the kept half 4 623 and 650, and its defects 1 222 and 161; the
        # middle blocks' defects are C(24, 2) and 66
        one_piece(24, 24, p)
        one_piece(12, 13, p)
        assert echelon_rows == [defect_rows(24, 24), defect_rows(12, 13)] == [276, 66]


class TestSplitRoute:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_match_the_explicit_tensor_product(self, p):
        for s in range(1, 13):
            dual = dual_action(jordan_block(s, p))
            for r in range(1, s + 1):
                want = jordan_type_of(kronecker(jordan_block(r, p), dual))
                ranks, invariants = one_piece(r, s, p)
                assert oracle._blocks_from_ranks(ranks) == want, (r, s)
                assert (invariants is None) == (r != s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_eliminate_at_most_min_r_s_wide(self, echelon_widths, p):
        # V_12 tensor V_12^* is 144-dimensional and V_12 tensor V_13^* is
        # 156-dimensional, but the defects of their graded blocks are at most
        # 11 wide; the diagonal piece's invariants add no column
        one_piece(12, 13, p)
        assert len(echelon_widths) == 1 and echelon_widths[0] <= 11, echelon_widths
        one_piece(12, 12, p)
        assert len(echelon_widths) == 2 and echelon_widths[1] <= 11, echelon_widths

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_a_diagonal_piece_eliminates_once_at_most_d_minus_1_wide(self, echelon_widths, p):
        # End(V_24) is 576-dimensional, but its ranks come from one call on
        # rows 23 wide, and its invariants from no elimination
        one_piece(24, 24, p)
        assert len(echelon_widths) == 1 and echelon_widths[0] <= 23, echelon_widths

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_invariants_match_the_chained_elimination(self, p):
        # the graded kernel against eliminations over all of End(V_d)
        for d in range(1, 25):
            want = helpers.chained_diagonal_invariants(d, p)
            assert one_piece(d, d, p)[1] == want, d

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_invariants_follow_the_delta_ladder(self, p):
        # delta_nu certifies I in im X^(p^nu - 1), and its trace is d / p^nu
        for d in range(1, 41):
            q = p ** nu_p(d, p)
            assert one_piece(d, d, p)[1] == (q - 1, d // q % p), d

    def test_the_widest_prime_gives_clebsch_gordan(self):
        # 2^31 - 1 is the largest prime whose elimination int64 holds (the
        # next, 2^31 + 11, is refused); every piece r <= s <= 24 is below the
        # characteristic there, and End(V_d) has h = 0 and c = d, so no sum
        # along the route may overflow
        p = 2**31 - 1
        assert construction._working_dtype(p, 2) is np.int64
        with pytest.raises(ValueError, match="too large"):
            construction._working_dtype(2**31 + 11, 2)
        for s in range(1, 25):
            for r in range(1, s + 1):
                ranks, invariants = one_piece(r, s, p)
                assert oracle._blocks_from_ranks(ranks) == recursions.clebsch_gordan(r, s), (r, s)
                assert invariants == ((0, r % p) if r == s else None), (r, s)

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


class TestBatchedPieces:
    PIECES = [(r, s) for s in range(1, 17) for r in range(1, s + 1)]

    def test_a_piece_eliminates_exactly_its_kept_rows(self, echelon_rows):
        # its defect rows, summed over however many calls the budget cuts it
        # into
        for s in range(1, 25):
            for r in range(1, s + 1):
                echelon_rows.clear()
                one_piece(r, s, 2)
                assert sum(echelon_rows) == defect_rows(r, s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_cold_item_eliminates_once(self, monkeypatch, p):
        # the 21 pieces V_r tensor V_s^*, r <= s, of 1, 2, 3, 5, 7, 12 share
        # one call, 11 wide, as the diagonal pieces' invariants add no column
        calls = watch_echelon(monkeypatch, lambda work: work.shape)
        t = JordanType({1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 12: 1})
        sizes = [d for d, _ in t]
        pieces = [(r, s) for i, r in enumerate(sizes) for s in sizes[i:]]
        assert len(pieces) == 21
        helpers.clear_memos()
        construction._split_adjoint_type(t, p)
        assert calls == [(sum(defect_rows(r, s) for r, s in pieces), 12 - 1)]
        construction._split_adjoint_type(t, p)  # warm: every piece is memoized
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10007])
    def test_batches_match_one_piece_at_a_time(self, p):
        # each piece reads its ranks and invariants off its own tags alone,
        # whatever shares its call and in whatever order
        rng = random.Random(p)
        alone = {key: one_piece(*key, p) for key in self.PIECES}
        diagonal = [key for key in self.PIECES if key[0] == key[1]]
        other = [key for key in self.PIECES if key[0] != key[1]]
        for _ in range(20):
            keys = rng.sample(diagonal, rng.randint(1, 5)) + rng.sample(other, rng.randint(1, 30))
            rng.shuffle(keys)
            assert construction._eliminate_pieces(keys, p) == [alone[key] for key in keys], keys
        keys = rng.sample(self.PIECES, len(self.PIECES))  # 3 060 defect rows in one call
        assert construction._eliminate_pieces(keys, p) == [alone[key] for key in keys]

    def test_the_byte_budget_cuts_a_batch(self, monkeypatch):
        # the pieces r <= s <= 16 hold 3 060 defect rows, (24, 24) 276 and
        # (200, 200) 19 900, all 199 wide: int8 at p = 2 and 5, int32 at
        # p = 10007
        calls = watch_echelon(monkeypatch, lambda work: (work.nbytes, work.shape[0]))
        keys = self.PIECES + [(24, 24), (200, 200)]
        counts = {}
        for p in (2, 5, 10007):
            calls.clear()
            construction._eliminate_pieces(keys, p)
            assert all(nbytes <= construction._ECHELON_BYTES for nbytes, _ in calls), (p, calls)
            assert sum(rows for _, rows in calls) == sum(map(defect_rows, *zip(*keys))), p
            assert len(calls) > 1, p
            counts[p] = len(calls)
        assert counts[10007] > counts[2], counts

    def test_a_batch_is_max_r_minus_1_wide_with_or_without_a_diagonal_piece(self, echelon_widths):
        construction._eliminate_pieces([(2, 9), (5, 7), (3, 3)], 3)
        construction._eliminate_pieces([(2, 9), (5, 7)], 3)
        assert echelon_widths == [5 - 1, 5 - 1]
