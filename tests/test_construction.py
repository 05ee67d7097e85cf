"""Tests for explicit tensor vectors, shift powers, and the delta ladder."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from jordanblocks import (
    GroupContext,
    JordanType,
    LadderVerdict,
    TensorVector,
    alpha_of,
    build_adjoint_action,
    build_report,
    delta,
    delta_ladder,
    dual_action,
    jordan_block,
    jordan_type_of,
    kronecker,
    nu_p,
    partitions_of,
    trace_form,
    verify_delta_ladder,
    x_power_on_basis,
    x_power_on_dual,
    x_power_on_tensor,
)
from jordanblocks import construction, oracle
from helpers import tensor_x_matrix


def matrix_power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(X.shape[0], dtype=np.int64)
    for _ in range(k):
        out = (out @ X) % p
    return out


class TestXPowerOnBasis:
    def test_shifts_down_by_k(self):
        assert x_power_on_basis(1, 3, 5) == 2
        assert x_power_on_basis(2, 5, 5) == 3

    def test_falls_off_the_bottom(self):
        assert x_power_on_basis(2, 2, 5) == 0
        assert x_power_on_basis(5, 5, 5) == 0

    def test_out_of_range_index_is_zero(self):
        assert x_power_on_basis(1, 7, 5) == 0
        assert x_power_on_basis(1, 0, 5) == 0

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            x_power_on_basis(0, 1, 5)


class TestXPowerOnDual:
    def test_small_literal(self):
        # X e_2* = -e_3* + e_4* inside a size four block
        assert x_power_on_dual(1, 2, 4, 3) == {3: 2, 4: 1}

    def test_power_beyond_reach_vanishes(self):
        assert x_power_on_dual(4, 1, 4, 3) == {}

    def test_out_of_range_index_is_zero(self):
        assert x_power_on_dual(1, 9, 4, 3) == {}
        assert x_power_on_dual(2, 0, 4, 3) == {}

    @pytest.mark.parametrize("n, p", [(4, 2), (5, 3), (6, 5)])
    def test_matches_the_dual_shift_matrix(self, n, p):
        D = dual_action(jordan_block(n, p))
        X = (D.array - np.eye(n, dtype=np.int64)) % p
        for k in range(1, n + 1):
            P = matrix_power(X, k, p)
            for i in range(1, n + 1):
                expected = {j + 1: int(c) for j, c in enumerate(P[i - 1]) if c}
                assert x_power_on_dual(k, i, n, p) == expected, (k, i)


class TestTensorVector:
    def test_coefficients_are_reduced_and_zeros_dropped(self):
        t = JordanType({2: 2})
        v = TensorVector(t, 2, {((0, 1), (1, 2)): 3, ((1, 1), (0, 1)): 2})
        assert dict(v.coefficients) == {((0, 1), (1, 2)): 1}

    def test_rejects_bad_block_index(self):
        t = JordanType({2: 2})
        with pytest.raises(ValueError, match="block index"):
            TensorVector(t, 2, {((2, 1), (0, 1)): 1})

    def test_rejects_bad_position(self):
        t = JordanType({2: 2})
        with pytest.raises(ValueError, match="position"):
            TensorVector(t, 2, {((0, 3), (0, 1)): 1})

    def test_addition_is_mod_p(self):
        t = JordanType({2: 2})
        v = TensorVector(t, 2, {((0, 1), (1, 2)): 1})
        w = TensorVector(t, 2, {((0, 1), (1, 2)): 1, ((1, 2), (0, 1)): 1})
        assert v + w == TensorVector(t, 2, {((1, 2), (0, 1)): 1})

    def test_equality_and_hash(self):
        t = JordanType({2: 2})
        v = TensorVector(t, 2, {((0, 1), (1, 2)): 1})
        w = TensorVector(t, 2, {((0, 1), (1, 2)): 3})
        assert v == w
        assert hash(v) == hash(w)

    def test_flatten_uses_block_offsets(self):
        t = JordanType({2: 2})
        v = TensorVector(t, 2, {((0, 1), (1, 2)): 1})
        # left index 0, right index 3, total dimension 4
        expected = np.zeros(16, dtype=np.int64)
        expected[3] = 1
        assert np.array_equal(v.flatten(), expected)

    def test_flatten_is_linear(self):
        t = JordanType({2: 1, 3: 1})
        v = TensorVector(t, 3, {((0, 2), (1, 1)): 1, ((1, 3), (0, 1)): 2})
        w = TensorVector(t, 3, {((0, 2), (1, 1)): 2, ((0, 1), (0, 1)): 1})
        assert np.array_equal((v + w).flatten(), (v.flatten() + w.flatten()) % 3)


class TestTraceForm:
    def test_sums_diagonal_coefficients(self):
        t = JordanType({2: 2})
        v = TensorVector(t, 3, {((0, 1), (0, 1)): 2, ((1, 2), (1, 2)): 2, ((0, 1), (1, 1)): 1})
        assert trace_form(v) == 1

    def test_vanishes_on_off_diagonal_vectors(self):
        t = JordanType({3: 1})
        v = TensorVector(t, 5, {((0, 1), (0, 2)): 4})
        assert trace_form(v) == 0


class TestDelta:
    def test_level_zero_is_the_diagonal(self):
        t = JordanType({2: 2})
        d0 = delta(0, t, 2)
        expected = {((r, i), (r, i)): 1 for r in range(2) for i in (1, 2)}
        assert dict(d0.coefficients) == expected

    def test_level_one_alternates_down_each_segment(self):
        d1 = delta(1, JordanType({3: 1}), 3)
        assert dict(d1.coefficients) == {
            ((0, 1), (0, 1)): 1,
            ((0, 2), (0, 1)): 2,
            ((0, 3), (0, 1)): 1,
        }

    def test_level_one_with_two_segments(self):
        d1 = delta(1, JordanType({6: 1}), 3)
        assert dict(d1.coefficients) == {
            ((0, 1), (0, 1)): 1,
            ((0, 2), (0, 1)): 2,
            ((0, 3), (0, 1)): 1,
            ((0, 4), (0, 4)): 1,
            ((0, 5), (0, 4)): 2,
            ((0, 6), (0, 4)): 1,
        }

    def test_spans_all_blocks(self):
        d1 = delta(1, JordanType({2: 2}), 2)
        assert dict(d1.coefficients) == {
            ((0, 1), (0, 1)): 1,
            ((0, 2), (0, 1)): 1,
            ((1, 1), (1, 1)): 1,
            ((1, 2), (1, 1)): 1,
        }

    def test_rejects_level_beyond_the_type(self):
        with pytest.raises(ValueError, match="does not divide"):
            delta(1, JordanType({3: 1}), 2)
        with pytest.raises(ValueError, match="does not divide"):
            delta(2, JordanType({3: 1, 9: 1}), 3)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            delta(-1, JordanType({2: 2}), 2)

    def test_trace_counts_segments(self):
        # the trace of the top delta is the segment count n / p^alpha
        for blocks, p in (({3: 1}, 3), ({6: 1}, 3), ({2: 2}, 2), ({4: 1, 8: 1}, 2)):
            t = JordanType(blocks)
            a = alpha_of(t, p)
            assert trace_form(delta(a, t, p)) == (t.dim // p**a) % p


class TestDeltaLadder:
    def test_carries_segment_counts_per_block(self):
        lad = delta_ladder(1, JordanType({6: 1, 3: 1}), 3)
        assert lad.beta == 1
        assert lad.segment_counts == (1, 2)
        assert lad.vector == delta(1, JordanType({6: 1, 3: 1}), 3)

    def test_is_frozen(self):
        lad = delta_ladder(1, JordanType({2: 2}), 2)
        with pytest.raises(AttributeError):
            lad.beta = 2


class TestXPowerOnTensor:
    def test_expands_a_single_step(self):
        # X(v (x) w) = Xv (x) w + v (x) Xw + Xv (x) Xw on basis vectors
        t = JordanType({3: 1})
        got = x_power_on_tensor(1, {(0, 2): 1}, {(0, 2): 1}, t, 3)
        X = tensor_x_matrix(t, 3)
        start = TensorVector(t, 3, {((0, 2), (0, 2)): 1})
        assert np.array_equal(got.flatten(), (start.flatten() @ X) % 3)

    def test_annihilated_left_factor_leaves_the_dual_terms(self):
        # e_1 dies under X, so only the v (x) X^k w summand survives
        t = JordanType({4: 1})
        got = x_power_on_tensor(2, {(0, 1): 1}, {(0, 1): 1}, t, 5)
        expected = {((0, 1), (0, j)): c for j, c in x_power_on_dual(2, 1, 4, 5).items()}
        assert got == TensorVector(t, 5, expected)

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            x_power_on_tensor(0, {(0, 1): 1}, {(0, 1): 1}, JordanType({2: 1}), 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_matrix_powers_on_basis_pairs(self, p):
        t = JordanType({2: 1, 3: 1})
        X = tensor_x_matrix(t, p)
        pairs = [(r, i) for r, size in enumerate((2, 3)) for i in range(1, size + 1)]
        for k in (1, 2, 3):
            P = matrix_power(X, k, p)
            for bi in pairs:
                for bj in pairs:
                    got = x_power_on_tensor(k, {bi: 1}, {bj: 1}, t, p)
                    start = TensorVector(t, p, {(bi, bj): 1})
                    assert np.array_equal(got.flatten(), (start.flatten() @ P) % p), (k, bi, bj)


class TestVerifyDeltaLadder:
    @pytest.mark.parametrize(
        "blocks, p",
        [({2: 2}, 2), ({4: 1, 2: 1}, 2), ({9: 1}, 3), ({3: 1, 6: 1}, 3), ({5: 1}, 5)],
    )
    def test_ladder_holds(self, blocks, p):
        assert verify_delta_ladder(JordanType(blocks), p) == LadderVerdict(True, None)

    def test_vacuous_when_no_ladder_exists(self):
        # a type with a size coprime to p has no levels to check
        assert verify_delta_ladder(JordanType({3: 1, 2: 1}), 3).ok

    def test_reports_the_failing_level(self, monkeypatch):
        def zero_action(t, p):
            n2 = t.dim**2
            return sparse.csr_matrix((n2, n2), dtype=np.int64)

        monkeypatch.setattr(construction, "_tensor_x_sparse", zero_action)
        verdict = verify_delta_ladder(JordanType({2: 2}), 2)
        assert verdict == LadderVerdict(False, 1)


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
        with pytest.raises(ValueError, match="dim"):
            build_adjoint_action(JordanType({1: 1}), 2)
        with pytest.raises(ValueError):
            build_adjoint_action(JordanType({}), 3)

    def test_diagonal_vector_is_fixed_by_the_tensor_action(self):
        # the invariant line and the invariant functional both come from delta_0
        for blocks, p in (({2: 2}, 2), ({3: 1, 1: 1}, 2), ({3: 1}, 3)):
            t = JordanType(blocks)
            d = delta(0, t, p).flatten()
            X = tensor_x_matrix(t, p)
            assert not ((d @ X) % p).any()
            assert not ((X @ d) % p).any()

    def test_adjoint_type_dimensions_add_up(self):
        for blocks, p in (({2: 1, 3: 1}, 2), ({4: 1}, 2), ({2: 2, 1: 1}, 5)):
            t = JordanType(blocks)
            drop = 2 if t.dim % p == 0 else 1
            assert jordan_type_of(build_adjoint_action(t, p)).dim == t.dim**2 - drop


def verify_peak(t: JordanType, p: int) -> tuple[bool, int]:
    """build_report(verify=True) from cold caches: (verified, tracemalloc peak)."""
    for memo in (construction._piece_type, construction._diagonal_invariants, oracle._tensor_block_type):
        memo.cache_clear()
    tracemalloc.start()
    try:
        report = build_report(t, GroupContext("SL", t.dim, p), verify=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report.verified, peak


class TestVerifyMemory:
    @pytest.mark.parametrize("blocks", [{1: 200}, {2: 10, 3: 20}], ids=["1^200", "2^10,3^20"])
    def test_many_small_blocks_stay_small(self, blocks):
        # only pieces of at most (max d)^2 rows are built, never n^2-square
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


class TestSplitRoute:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pieces_match_the_explicit_tensor_product(self, p):
        for s in range(1, 13):
            dual = dual_action(jordan_block(s, p))
            for r in range(1, s + 1):
                want = jordan_type_of(kronecker(jordan_block(r, p), dual))
                assert construction._piece_type(r, s, p) == want, (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_diagonal_invariants_follow_the_delta_ladder(self, p):
        # delta_nu certifies I in im X^(p^nu - 1), and its trace is d / p^nu
        for d in range(1, 25):
            q = p ** nu_p(d, p)
            assert construction._diagonal_invariants(d, p) == (q - 1, d // q % p), d

    def test_wide_dtype_prime_agrees_with_the_whole_module(self):
        p = 1_000_003
        for n in range(2, 7):
            for t in partitions_of(n):
                want = jordan_type_of(build_adjoint_action(t, p))
                assert construction._split_adjoint_type(t, p) == want, t.render()
