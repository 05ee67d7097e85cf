"""Tests for the adjoint construction, its split verify route, and the
paper's proof model in `helpers`: shift closed forms and the delta ladder."""

import itertools
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
        return [memo.cache_info().currsize for memo in memos] + [len(construction._piece_memo)]

    assert all(sizes())
    helpers.clear_memos()
    assert sizes() == [0, 0, 0]


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


@pytest.fixture
def hankel_windows(monkeypatch):
    """(len(u), m) of every window `_hankel_rank` is asked to rank."""
    seen = []
    original = construction._hankel_rank

    def recorded(u, m, p):
        seen.append((len(u), m))
        return original(u, m, p)

    monkeypatch.setattr(construction, "_hankel_rank", recorded)
    return seen


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
        # End(V_40) is 1600-dimensional; its piece ranks come from one
        # Hankel window per power, and its invariants from the series
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(40, 40, 2)[1] == (7, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_batched_pieces_stay_small(self):
        # the 15 pieces of 36, ..., 40 in one call hold only the series
        # rows up to x^40, where one elimination of all their graded rows
        # peaked near 120 MB
        helpers.clear_memos()
        tracemalloc.start()
        try:
            construction._split_adjoint_type(JordanType({36: 1, 37: 1, 38: 1, 39: 1, 40: 1}), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_a_large_diagonal_piece_stays_small(self):
        # End(V_100) ranks one window of at most 99 terms per power; one
        # elimination of all of its 333 399 kept graded rows peaked near 256 MB
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(100, 100, 2)[1] == (3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_a_wide_diagonal_piece_ranks_only_its_middle_blocks(self):
        # End(V_200) ranks one window of at most 199 terms per power, its
        # middle block's, where the defects of its kept blocks were 671 650
        # rows
        helpers.clear_memos()
        tracemalloc.start()
        try:
            assert one_piece(200, 200, 2)[1] == (7, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        # every order a piece 61 wide reaches, 0 to 120 either way, at every
        # column, by Pascal's rule and its inverse against Lucas
        up, down = construction._series_rows(120, 61, p)
        assert len(up) == len(down) == 121
        for j in range(121):
            assert up[j] == [series_mod_p(j, m, p) for m in range(61)], j
            assert down[j] == [series_mod_p(-j, m, p) for m in range(61)], -j


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
        # transposed; ranked by rref, not by the engine under test
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
        # sums to c(n + 1 - c); ranked by rref, not by the engine under
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
        # by the engine under test, over every kept block (13 192 in all)
        for s in range(1, 13):
            for r in range(1, s + 1):
                for k, d, a, f in kept_blocks(r, s):
                    block = graded_block(r, s, k, d, p)
                    assert block.shape[0] == a + 1, (r, s, k, d)
                    defect = len(rref(defect_matrix(r, k, a, f, p), p)[1])
                    assert len(rref(block, p)[1]) == a + 1 - f + defect, (r, s, k, d)
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_each_power_ranks_at_most_one_window(self, hankel_windows, p):
        # the middle block's, and none for a power whose middle block has
        # full rank or is empty
        for s in range(1, 13):
            for r in range(1, s + 1):
                hankel_windows.clear()
                ranks, _ = one_piece(r, s, p)
                assert len(hankel_windows) <= len(ranks) - 1, (r, s)


def hankel(u, m: int) -> np.ndarray:
    """The m x (len(u) + 1 - m) Hankel matrix H[i, j] = u[i + j]."""
    w = len(u) + 1 - m
    return np.array([[u[i + j] for j in range(w)] for i in range(m)], dtype=np.int64).reshape(m, w)


class TestHankelRank:
    @pytest.mark.parametrize("p, longest", [(2, 7), (3, 5)])
    def test_every_short_sequence_and_split(self, p, longest):
        # min(m, w, l, N + 1 - l) against rref, on every sequence of length
        # N <= longest and every m x (N + 1 - m) shape
        for n in range(1, longest + 1):
            for u in itertools.product(range(p), repeat=n):
                for m in range(1, n + 1):
                    assert construction._hankel_rank(list(u), m, p) == len(rref(hankel(u, m), p)[1]), (u, m)

    @pytest.mark.parametrize("p", [5, 7, 11, 10007])
    def test_seeded_random_windows(self, p):
        # sequences of every linear complexity: a random recurrence of
        # random order from random seeds, half of them with one term changed
        rng = random.Random(p)
        for _ in range(500):
            n = rng.randint(1, 14)
            order = rng.randint(0, n)
            taps = [rng.randrange(p) for _ in range(order)]
            u = [rng.randrange(p) for _ in range(order)]
            while len(u) < n:
                u.append(sum(a * b for a, b in zip(taps, u[-order:])) % p if order else 0)
            if rng.random() < 0.5:
                u[rng.randrange(n)] = rng.randrange(p)
            m = rng.randint(1, n)
            assert construction._hankel_rank(u, m, p) == len(rref(hankel(u, m), p)[1]), (u, m)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_middle_window_up_to_24(self, p):
        # each power's middle block of each piece r <= s <= 24: its defect
        # M for k <= s, or the block itself for k > s, built from binomials,
        # is Hankel with its rows reversed, `_hankel_rank` ranks it as rref
        # does, and the engine gives X^k the rank c(n + 1 - c) that follows
        for s in range(1, 25):
            for r in range(1, s + 1):
                top = r + s - 2
                ranks = [r * s]
                for k in range(1, top + 1):
                    d = (top - k) // 2
                    a, f = min(d, r - 1), max(d + k - s + 1, 0)
                    window = defect_matrix(r, k, a, f, p) if k <= s else graded_block(r, s, k, d, p)
                    c = a + 1 - f if k <= s else 0
                    if window.size:
                        reversed_rows = window[::-1]
                        u = [int(x) for x in (*reversed_rows[:, 0], *reversed_rows[-1, 1:])]
                        m = window.shape[0]
                        assert np.array_equal(reversed_rows, hankel(u, m)), (r, s, k)
                        rank = construction._hankel_rank(u, m, p)
                        assert rank == len(rref(window, p)[1]), (r, s, k)
                        c += rank
                    ranks.append(c * (top + 2 - k - c))
                ranks.append(0)
                assert one_piece(r, s, p)[0] == tuple(ranks[: ranks.index(0) + 1]), (r, s)


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
    def test_pieces_rank_windows_shorter_than_min_r_s(self, hankel_windows, p):
        # each window is of terms below x^r, past the first, so End(V_d)'s
        # are at most d - 1 long
        for s in range(1, 13):
            for r in range(1, s + 1):
                hankel_windows.clear()
                one_piece(r, s, p)
                assert all(1 <= m <= n < r for n, m in hankel_windows), (r, s, hankel_windows)

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
        # 2^61 - 1 is far past what an int64 elimination holds; every piece
        # r <= s <= 24 is below the characteristic there, and End(V_d) has
        # h = 0 and c = d, so the Python-int route must stay exact
        p = 2**61 - 1
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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_cold_item_eliminates_once(self, monkeypatch, p):
        # the 21 pieces V_r tensor V_s^*, r <= s, of 1, 2, 3, 5, 7, 12 share
        # one call, and a warm item ranks none of them again
        calls = []
        original = construction._eliminate_pieces

        def recorded(keys, p):
            calls.append(sorted(keys))
            return original(keys, p)

        monkeypatch.setattr(construction, "_eliminate_pieces", recorded)
        t = JordanType({1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 12: 1})
        sizes = [d for d, _ in t]
        pieces = [(r, s) for i, r in enumerate(sizes) for s in sizes[i:]]
        assert len(pieces) == 21
        helpers.clear_memos()
        construction._split_adjoint_type(t, p)
        assert calls == [sorted(pieces)]
        construction._split_adjoint_type(t, p)  # warm: every piece is memoized
        assert sum(map(len, calls)) == 21

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 10007])
    def test_batches_match_one_piece_at_a_time(self, p):
        # each piece reads its ranks and invariants off its own windows
        # alone, whatever shares its call and in whatever order
        rng = random.Random(p)
        alone = {key: one_piece(*key, p) for key in self.PIECES}
        diagonal = [key for key in self.PIECES if key[0] == key[1]]
        other = [key for key in self.PIECES if key[0] != key[1]]
        for _ in range(20):
            keys = rng.sample(diagonal, rng.randint(1, 5)) + rng.sample(other, rng.randint(1, 30))
            rng.shuffle(keys)
            assert construction._eliminate_pieces(keys, p) == [alone[key] for key in keys], keys
        keys = rng.sample(self.PIECES, len(self.PIECES))  # every piece in one call
        assert construction._eliminate_pieces(keys, p) == [alone[key] for key in keys]
