import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcakit import oracle
from spcakit import (
    EnumerationBudgetExceeded,
    InvalidSupport,
    eigendecompose,
    exact_spca,
    pit_props,
    restricted_top_eigenpair,
    symmetrize,
)

from helpers import exhaustive_spca_loop, random_psd


def _assert_matches_loop(A, k):
    res = exact_spca(A, k)
    support = tuple(res.optimal_vector.support)
    assert (res.optimal_value, support, res.instances_enumerated) == exhaustive_spca_loop(A.entries, k)
    assert 0 <= res.instances_pruned < res.instances_enumerated
    return res


_TRIDIAGONAL_BLOCK = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
_TIE_HEAVY_INPUTS = {
    "identity": np.eye(8),
    "all-ones": np.ones((8, 8)),
    # Rounding puts the computed top eigenvalue of these blocks above their
    # computed Gershgorin bound, so the screen's margin is needed.
    "constant": np.full((8, 8), 0.3),
    "repeated-diagonal": np.diag([3.0, 1.0, 3.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]),
    "duplicated-blocks": np.kron(np.eye(3), _TRIDIAGONAL_BLOCK),
    "duplicated-random-blocks": np.kron(np.eye(2), random_psd(5, 77).entries),
    "zero": np.zeros((6, 6)),
}
# Blocks whose spread ``f - t**2/k`` cancels to rounding level. The scalar
# plus a 1e-8 rank-one part has a Wolkowicz-Styan bound that is exact, and a
# spread the size of the rounding error in ``f``, so without the screen's
# ``2k sqrt(eps f)`` slack its computed bound can fall below eigvalsh.
_NEAR_SCALAR_INPUTS = {
    "scalar": np.eye(9),
    "scalar-perturbed": np.eye(9) + 1e-13 * random_psd(9, 5).entries,
    "scalar-plus-rank-one": np.eye(9) + 1e-8 * np.ones((9, 9)),
    "constant": np.ones((9, 9)),
    "block-ones": np.kron(np.eye(3), np.ones((3, 3))),
}


class TestRestrictedTopEigenpair:
    def test_singleton_identity(self):
        value, vec = restricted_top_eigenpair(symmetrize(np.eye(4)), [2])
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(vec, [1.0])

    def test_known_2x2(self):
        value, vec = restricted_top_eigenpair(symmetrize([[2.0, 1.0], [1.0, 2.0]]), [0, 1])
        assert value == pytest.approx(3.0)
        np.testing.assert_allclose(vec, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_matches_submatrix_decomposition(self):
        A = random_psd(6, 246)
        support = [1, 3, 4]
        value, vec = restricted_top_eigenpair(A, support)
        sub = symmetrize(A.entries[np.ix_(support, support)])
        eig = eigendecompose(sub)
        assert value == pytest.approx(eig.values[0], abs=1e-12)
        np.testing.assert_allclose(vec, eig.vectors[:, 0], atol=1e-12)

    def test_invalid_support(self):
        A = random_psd(4, 1)
        with pytest.raises(InvalidSupport):
            restricted_top_eigenpair(A, [])
        with pytest.raises(InvalidSupport):
            restricted_top_eigenpair(A, [0, 0])
        with pytest.raises(InvalidSupport):
            restricted_top_eigenpair(A, [0, 9])


class TestExactSpca:
    def test_identity_lexicographic_tie_break(self):
        res = exact_spca(symmetrize(np.eye(5)), 2)
        assert res.optimal_value == pytest.approx(1.0)
        assert tuple(res.optimal_vector.support) == (0, 1)
        assert res.instances_enumerated == 10

    def test_diagonal_dominance(self):
        res = exact_spca(symmetrize(np.diag([4.0, 3.0, 2.0, 1.0])), 2)
        assert res.optimal_value == pytest.approx(4.0)
        np.testing.assert_allclose(res.optimal_vector.to_dense(), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_pitprops_known_optimum(self):
        res = exact_spca(pit_props(), 7)
        assert res.optimal_value == pytest.approx(3.996, abs=0.005)
        assert tuple(res.optimal_vector.support) == (0, 1, 5, 6, 7, 8, 9)

    def test_budget_exceeded(self, monkeypatch):
        A = random_psd(10, 3)

        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started before the budget check")

        monkeypatch.setattr(oracle, "_leaf_batches", no_enumeration)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_enumeration)
        with pytest.raises(EnumerationBudgetExceeded) as info:
            exact_spca(A, 5, max_enumeration=100)
        assert info.value.required == 252

    def test_bounded_by_top_eigenvalue(self):
        for seed in range(5):
            A = random_psd(8, 600 + seed)
            lam1 = eigendecompose(A).values[0]
            for k in (1, 3, 8):
                assert exact_spca(A, k).optimal_value <= lam1 + 1e-10

    def test_monotone_in_k_and_exact_at_full_support(self):
        A = random_psd(7, 951)
        values = [exact_spca(A, k).optimal_value for k in range(1, 8)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
        assert values[-1] == pytest.approx(eigendecompose(A).values[0], abs=1e-10)

    @pytest.mark.parametrize("built", ["pitprops", "random"])
    def test_value_and_vector_scale_exactly_by_powers_of_two(self, built):
        # The value and vector come from the normalized block the search
        # screened, scaled back by the same exponent, so scaling A by 2^e
        # scales the value by exactly 2^e, deep below 2^-470 too, and leaves
        # the support and the vector unchanged bit for bit.
        A = pit_props() if built == "pitprops" else random_psd(10, 4243)
        ref = exact_spca(A, 3)
        for e in (-600, -500, -470, 40, 500, 600):
            res = exact_spca(symmetrize(np.ldexp(A.entries, e)), 3)
            assert res.optimal_value == math.ldexp(ref.optimal_value, e), e
            assert np.array_equal(res.optimal_vector.support, ref.optimal_vector.support), e
            assert np.array_equal(res.optimal_vector.values, ref.optimal_vector.values), e

    def test_result_consistency(self):
        A = random_psd(6, 4242)
        res = exact_spca(A, 3)
        assert res.optimal_vector.sparsity <= 3
        assert abs(res.optimal_vector.norm - 1.0) <= 1e-12
        assert res.optimal_vector.quadratic_form(A) == pytest.approx(res.optimal_value, abs=1e-10)


class TestScreenedEnumeration:
    """The chunked, screened enumeration against a one-support-at-a-time loop."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_loop_on_random_psd(self, n, scale):
        for seed in range(3):
            A = random_psd(n, 1300 + 17 * n + seed, scale=scale)
            for k in range(1, n + 1):
                _assert_matches_loop(A, k)

    @pytest.mark.parametrize("name", sorted(_TIE_HEAVY_INPUTS))
    def test_matches_loop_on_tie_heavy_inputs(self, name):
        A = symmetrize(_TIE_HEAVY_INPUTS[name])
        for k in range(1, A.n + 1):
            _assert_matches_loop(A, k)

    def test_several_chunks_and_a_remainder(self):
        n, k = 20, 6
        chunk = oracle._CHUNK_ENTRIES // (k * k)
        required = math.comb(n, k)
        assert required > 2 * chunk and required % chunk != 0
        res = _assert_matches_loop(random_psd(n, 2024), k)
        assert res.instances_enumerated == required

    @pytest.mark.parametrize("entries", [1, 40])
    def test_tiny_chunks(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", entries)
        for k in (2, 3, 5):
            _assert_matches_loop(random_psd(10, 31 + k), k)
            _assert_matches_loop(symmetrize(_TIE_HEAVY_INPUTS["repeated-diagonal"]), k)

    def test_screen_prunes_on_wishart_input(self):
        rng = np.random.Generator(np.random.Philox(8))
        g = rng.standard_normal((20, 20))
        res = _assert_matches_loop(symmetrize(g @ g.T / 20), 5)
        assert res.instances_pruned > 0

    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_on_random_low_rank_psd(self, n, rank, seed, scale):
        # Rank-one blocks make the Wolkowicz-Styan bound exact, so low ranks
        # put supports right at the screen's threshold.
        rng = np.random.Generator(np.random.Philox(seed))
        g = rng.standard_normal((n, min(rank, n)))
        A = symmetrize(scale * (g @ g.T) / n)
        for k in range(1, n + 1):
            _assert_matches_loop(A, k)

    @pytest.mark.parametrize("scale", [1e-3, 0.7, 1e3])
    @pytest.mark.parametrize("name", sorted(_NEAR_SCALAR_INPUTS))
    def test_screen_covers_every_support_when_the_spread_cancels(self, name, scale):
        A = symmetrize(scale * _NEAR_SCALAR_INPUTS[name])
        entries = A.entries
        for k in range(1, A.n + 1):
            margin = oracle._SCREEN_MARGIN * k * np.abs(entries).max()
            for prefixes, rows, cols, trace, frob in oracle._leaf_batches(entries, k):
                supports = np.column_stack([prefixes[rows], cols])
                blocks = entries[supports[:, :, None], supports[:, None, :]]
                values = np.linalg.eigvalsh(blocks)[:, -1]
                assert np.all(oracle._screen_bounds(trace, frob, k) >= values - margin), k
            res = _assert_matches_loop(A, k)
            if name in ("scalar", "constant"):
                assert tuple(res.optimal_vector.support) == tuple(range(k))

    @pytest.mark.parametrize("entries", [1, 40, oracle._CHUNK_ENTRIES])
    def test_leaf_batches_are_the_combinations_in_order(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", entries)
        A = random_psd(7, 12)
        for k in range(1, 8):
            supports, traces, frobs = [], [], []
            for prefixes, rows, cols, trace, frob in oracle._leaf_batches(A.entries, k):
                supports.extend(map(tuple, np.column_stack([prefixes[rows], cols]).tolist()))
                traces.extend(trace)
                frobs.extend(frob)
            assert supports == list(itertools.combinations(range(7), k))
            blocks = [A.entries[np.ix_(s, s)] for s in supports]
            np.testing.assert_allclose(traces, [np.trace(b) for b in blocks], rtol=1e-14)
            np.testing.assert_allclose(frobs, [np.sum(b * b) for b in blocks], rtol=1e-14)

    @pytest.mark.parametrize("n, seed", [(1, 3), (7, 12), (20, 8)])
    def test_greedy_incumbent_stacks_the_forward_selection_blocks(self, monkeypatch, n, seed):
        # Step s stacks A[S, S] for S = the picks so far, in the order picked,
        # plus each free index in ascending order; the first largest top
        # eigenvalue is picked. The same blocks in the same order keep the
        # incumbent, and so the pruning, bit for bit.
        eigvalsh = np.linalg.eigvalsh
        stacks = []

        def recording_eigvalsh(a):
            stacks.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        A = random_psd(n, seed)
        for k in range(1, n + 1):
            stacks.clear()
            value = oracle._greedy_incumbent(A.entries, k)
            chosen = []
            assert len(stacks) == k
            for stack in stacks:
                free = [j for j in range(n) if j not in chosen]
                expected = [A.entries[np.ix_(chosen + [j], chosen + [j])] for j in free]
                assert np.array_equal(stack, expected)
                tops = eigvalsh(stack)[:, -1]
                chosen.append(free[int(np.argmax(tops))])
            assert value == float(tops.max())

    def test_prunes_nearly_every_support_on_wishart_input(self):
        # Gershgorin row sums pruned 95.5% of the 658 008 supports here; the
        # Wolkowicz-Styan screen sends under 0.1% of them to eigvalsh.
        res = exact_spca(random_psd(40, 1), 5)
        assert res.instances_pruned >= 0.99 * res.instances_enumerated

    def test_working_memory_is_bounded(self):
        # C(49, 5) = 1 906 884 supports, just under the default budget. The
        # peak must stay under twice the 2 MB of _CHUNK_ENTRIES float64s.
        A = random_psd(49, 5)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            exact_spca(A, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2 * 8 * oracle._CHUNK_ENTRIES

    @pytest.mark.parametrize("n, k", [(256, 256), (120, 119)])
    def test_k_near_n_scores_no_more_than_the_supports(self, monkeypatch, n, k):
        eigvalsh = np.linalg.eigvalsh
        scored = []

        def counting_eigvalsh(a):
            scored.append(1 if a.ndim == 2 else a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        A = random_psd(n, 4242)
        res = exact_spca(A, k)
        assert sum(scored) <= res.instances_enumerated == math.comb(n, k)
        if k == n:
            assert tuple(res.optimal_vector.support) == tuple(range(n))
            assert res.optimal_value == pytest.approx(eigvalsh(A.entries)[-1], rel=1e-12)
