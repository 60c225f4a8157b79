"""Variation norms: DP vs exhaustive search, norm axioms, flow-adapted V2."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import airy
from gkdvlab import variation as var
from gkdvlab.grid import Field, GridSpec, l2_norm

from conftest import random_field


def brute_force_vp(rows, weight, p, terminal=True):
    """Maximize the l^p jump sum over every partition by direct enumeration.

    Every strictly increasing subset of sample indices is a partition, and
    each chain also pays the final-vector norm (the v(inf) = 0 jump); with
    terminal=False it pays nothing there, the chain sum of vp_batch over
    zero norms. Shares the increment tables with the DP so the comparison
    isolates the search strategy, which is the part under test.
    """
    D, nrm = var.increment_tables(rows, weight)
    Dp = D ** p
    Tp = nrm ** p
    best = 0.0
    for size in range(1, len(rows) + 1):
        for chain in itertools.combinations(range(len(rows)), size):
            s = 0.0
            for a, b in zip(chain, chain[1:]):
                s = s + Dp[a, b]
            if terminal:
                s = s + Tp[chain[-1]]
            elif size == 1:
                continue
            if s > best:
                best = s
    return best ** (1.0 / p)


def dp_values(paths, p, terminal):
    """vp_batch over the stacked tables of (rows, weight) paths of one length;
    without the terminal jump the norms it is given are zero."""
    tables = [var.increment_tables(rows, w) for rows, w in paths]
    nrm = np.stack([n for _, n in tables])
    return var.vp_batch(np.stack([D for D, _ in tables]),
                        nrm if terminal else np.zeros_like(nrm), p)


def random_sampled(rng, m, dim, complex_=False):
    """(rows, weight) of a random path; the sample times are drawn and
    dropped, as the seeded paths were drawn with them."""
    rng.uniform(0, 10, size=m)
    v = rng.standard_normal((m, dim))
    if complex_:
        v = v + 1j * rng.standard_normal((m, dim))
    return v, float(rng.uniform(0.5, 3.0))


class TestSampledPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            var.increment_tables(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            var.vp_norm(np.zeros((2, 3, 1)), 1.0, 2.0)
        with pytest.raises(ValueError):
            var.vp_norm(np.zeros((2, 3)), 0.0, 2.0)
        with pytest.raises(ValueError):
            var.vp_norm(np.zeros((0, 3)), -1.0, 2.0)
        assert var.vp_norm(np.zeros((0, 3)), 1.0, 2.0) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            var.vp_norm(np.eye(2), 1.0, 0.5)


class TestVpNorm:
    def test_constant_path_is_terminal_jump(self):
        # constant path has no increments; only the jump to zero counts
        e = np.array([[3.0, 4.0]] * 6)
        assert var.vp_norm(e, 1.0, 2.0) == pytest.approx(5.0, abs=1e-14)
        assert np.all(var.increment_tables(e, 1.0)[0] == 0.0)

    def test_single_bump_path(self):
        # 0 -> e -> 0: two unit jumps, l2-sum sqrt(2), terminal jump is zero
        v = np.array([[0.0], [1.0], [0.0]])
        assert var.vp_norm(v, 1.0, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert var.vp_norm(v, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_terminal_can_beat_endpoint_chains(self):
        # shrinking tail: best partition stops early and pays the larger
        # terminal jump instead of walking down to the final sample
        v = np.array([[1.0], [0.5]])
        assert var.vp_norm(v, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("rel", [1e-6, 1e-9])
    def test_nearly_constant_path_matches_direct_differences(self, rel):
        # increments far below sqrt(eps) * ||v|| cancel in a Gram matrix of
        # the raw rows; the oracle forms every difference directly
        rng = np.random.default_rng(5)
        m, dim = 65, 256
        base = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        steps = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        steps *= rel * np.linalg.norm(base) \
            / np.linalg.norm(steps, axis=1, keepdims=True)
        v = base[None, :] + np.cumsum(steps, axis=0)
        w = 0.7
        direct = np.sqrt(w * np.sum(np.abs(v[:, None] - v[None, :]) ** 2, axis=2))
        D = var.increment_tables(v, w)[0]
        off = ~np.eye(m, dtype=bool)
        assert np.max(np.abs(D - direct)[off] / direct[off]) <= 1e-12

    @pytest.mark.parametrize("terminal", [True, False])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 4.0])
    def test_dp_matches_enumeration_bitwise(self, p, terminal):
        rng = np.random.default_rng(41)
        for trial in range(30):
            m = int(rng.integers(2, 11))
            rows, w = random_sampled(rng, m, int(rng.integers(1, 5)),
                                     complex_=bool(rng.integers(0, 2)))
            want = brute_force_vp(rows, w, p, terminal)
            if terminal:
                assert var.vp_norm(rows, w, p) == want
            assert dp_values([(rows, w)], p, terminal) == [want]

    @pytest.mark.parametrize("terminal", [True, False])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 4.0])
    def test_batched_dp_matches_single_and_enumeration_bitwise(self, p, terminal):
        # one k-loop over a stack of tables gives each path its own value
        rng = np.random.default_rng(43)
        for trial in range(10):
            m = int(rng.integers(2, 10))
            paths = [random_sampled(rng, m, int(rng.integers(1, 5)),
                                    complex_=bool(rng.integers(0, 2)))
                     for _ in range(int(rng.integers(1, 7)))]
            got = dp_values(paths, p, terminal)
            assert got == [dp_values([path], p, terminal)[0] for path in paths]
            assert got == [brute_force_vp(*path, p, terminal) for path in paths]

    def test_monotone_in_p(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rows, w = random_sampled(rng, int(rng.integers(2, 9)), 3)
            a = var.vp_norm(rows, w, 2.0)
            b = var.vp_norm(rows, w, 3.0)
            c = var.vp_norm(rows, w, 6.0)
            assert b <= a + 1e-12 * max(a, 1.0)
            assert c <= b + 1e-12 * max(b, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(1.0, 6.0))
    def test_homogeneity_and_triangle(self, seed, p):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        rng.uniform(0.1, 1.0, size=m)  # the sample times, drawn and dropped
        a = rng.standard_normal((m, 3))
        b = rng.standard_normal((m, 3))
        w = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.1, 5.0))
        na = var.vp_norm(a, w, p)
        nb = var.vp_norm(b, w, p)
        nca = var.vp_norm(c * a, w, p)
        nab = var.vp_norm(a + b, w, p)
        assert nca == pytest.approx(c * na, rel=1e-10)
        assert nab <= na + nb + 1e-10 * (na + nb + 1.0)


class TestV2Kdv:
    def test_free_solution_is_initial_norm(self, small_grid):
        rng = np.random.default_rng(3)
        phi = random_field(small_grid, rng, decay=2.0)
        path = airy.free_solution(phi)
        assert var.v2_kdv_norm(path) == pytest.approx(l2_norm(phi),
                                                      rel=1e-12)

    def test_free_solution_without_terminal_is_zero(self, small_grid):
        # the pulled-back free path is constant: its increments, apart from
        # the terminal jump, read as rounding, far below ||phi||
        rng = np.random.default_rng(4)
        phi = random_field(small_grid, rng, decay=2.0)
        path = airy.free_solution(phi)
        rows = path.spectral_matrix * airy.phase_matrix(small_grid, -1)
        D = var.increment_tables(rows * np.sqrt(small_grid.bin_weights),
                                 small_grid.domain_length)[0]
        assert D.max() <= 1e-6 * l2_norm(phi)

    def test_zero_path(self, small_grid):
        from gkdvlab.grid import Path
        assert var.v2_kdv_norm(Path.zero(small_grid)) == 0.0

    def test_linear_in_scaling(self, small_grid):
        rng = np.random.default_rng(5)
        phi = random_field(small_grid, rng, decay=2.0)
        path = airy.free_solution(phi)
        n1 = var.v2_kdv_norm(path)
        n3 = var.v2_kdv_norm(path * 3.0)
        assert n3 == pytest.approx(3.0 * n1, rel=1e-12)
