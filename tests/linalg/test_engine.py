"""Blocked solve-engine tests: correctness, bit-for-bit contracts,
scipy cross-checks and the zero-allocation discipline.

The engine's correctness contract has two layers: numerical agreement
with dense/scipy references (tolerance-based), and *exact* agreement
between its own entry points — ``solve`` on a complex vector, ``solve_many``
on the stacked re/im columns, and fused ``solve_stack`` groups must all
produce bit-identical columns (fixed sweep width, independent columns).
"""

import numpy as np
import pytest
import scipy.linalg

from repro.instrument import SolveCounters
from repro.linalg.custom import FoldedLU
from repro.linalg.engine import BandedSolveEngine, default_block
from repro.linalg.structure import BandedSystemSpec, FoldedBanded

from tests.linalg.test_structure import corner_banded_matrix


def make_lu(rng, n=64, kl=3, ku=3, corner=0, nbatch=4, **kw):
    a, spec = corner_banded_matrix(rng, n=n, kl=kl, ku=ku, corner=corner, nbatch=nbatch)
    return a, spec, FoldedLU(FoldedBanded.from_dense(a, spec), **kw)


class TestAgainstDense:
    @pytest.mark.parametrize("bandwidth", [3, 5, 7, 9, 11, 13, 15])
    @pytest.mark.parametrize("corner", [0, 2])
    def test_bandwidth_sweep(self, rng, bandwidth, corner):
        """Random corner-banded systems at the paper's Table 1 bandwidths."""
        kl = ku = (bandwidth - 1) // 2
        a, spec, lu = make_lu(rng, n=80, kl=kl, ku=ku, corner=corner, nbatch=3)
        rhs = rng.standard_normal((3, 80))
        x = lu.engine().solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(3)])
        np.testing.assert_allclose(x, ref, atol=1e-9)

    def test_complex_rhs(self, rng):
        a, spec, lu = make_lu(rng, corner=3)
        rhs = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        x = lu.engine().solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(4)])
        np.testing.assert_allclose(x, ref, atol=1e-9)
        assert np.iscomplexobj(x)

    def test_matches_solve_reference(self, rng):
        """Engine and row-at-a-time reference sweeps agree to rounding."""
        a, spec, lu = make_lu(rng, n=50, corner=2)
        rhs = rng.standard_normal((4, 50))
        np.testing.assert_allclose(lu.engine().solve(rhs), lu.solve_reference(rhs), atol=1e-11)

    def test_block_size_invariance(self, rng):
        """Every panel height gives the same answer (to rounding)."""
        a, spec, lu = make_lu(rng, n=70, corner=2)
        rhs = rng.standard_normal((4, 70))
        ref = lu.engine(block=70).solve(rhs)
        for b in (1, 3, 8, 16, 33, 64):
            np.testing.assert_allclose(lu.engine(block=b).solve(rhs), ref, atol=1e-11)

    def test_solve_many_matches_columnwise(self, rng):
        a, spec, lu = make_lu(rng, n=40, corner=1, nbatch=2)
        cols = rng.standard_normal((2, 40, 7))
        xs = lu.solve_many(cols)
        for j in range(7):
            ref = np.stack([np.linalg.solve(a[b], cols[b, :, j]) for b in range(2)])
            np.testing.assert_allclose(xs[:, :, j], ref, atol=1e-9)


class TestAgainstScipy:
    @pytest.mark.parametrize("bandwidth", [3, 7, 11, 15])
    @pytest.mark.parametrize("corner", [0, 3])
    def test_solve_banded_crosscheck(self, rng, bandwidth, corner):
        """Independent oracle: LAPACK gbsv on the padded general band."""
        kl = ku = (bandwidth - 1) // 2
        a, spec, lu = make_lu(rng, n=96, kl=kl, ku=ku, corner=corner, nbatch=3)
        rhs = rng.standard_normal((3, 96))
        x = lu.engine().solve(rhs)
        # padded band covering the full-window boundary rows
        klp = kup = spec.window - 1
        for b in range(3):
            ab = np.zeros((klp + kup + 1, 96))
            for off in range(-klp, kup + 1):
                d = np.diagonal(a[b], off)
                ab[kup - off, max(off, 0) : max(off, 0) + d.size] = d
            ref = scipy.linalg.solve_banded((klp, kup), ab, rhs[b])
            np.testing.assert_allclose(x[b], ref, atol=1e-9)


class TestBitForBitContracts:
    def test_complex_equals_stacked_real(self, rng):
        """The real-factor complex sweep is exactly the stacked-real sweep."""
        a, spec, lu = make_lu(rng, n=64, corner=3)
        rhs = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        xc = lu.solve(rhs)
        xm = lu.solve_many(np.stack([rhs.real, rhs.imag], axis=-1))
        assert np.array_equal(xm[:, :, 0], xc.real)
        assert np.array_equal(xm[:, :, 1], xc.imag)

    def test_solve_stack_equals_separate_solves(self, rng):
        """Fused groups reproduce the separate solves bit for bit,
        regardless of each part's position in the column stream."""
        a, spec, lu = make_lu(rng, n=64, corner=2)
        rc1 = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        rr1 = rng.standard_normal((4, 64))
        rc2 = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        rr2 = rng.standard_normal((4, 64))
        outs = lu.engine().solve_stack([rc1, rr1, rc2, rr2])
        assert np.array_equal(outs[0], lu.solve(rc1))
        assert np.array_equal(outs[1], lu.solve(rr1))
        assert np.array_equal(outs[2], lu.solve(rc2))
        assert np.array_equal(outs[3], lu.solve(rr2))

    def test_solve_repeatable(self, rng):
        a, spec, lu = make_lu(rng, n=48)
        rhs = rng.standard_normal((4, 48))
        assert np.array_equal(lu.solve(rhs), lu.solve(rhs))


class TestZeroAllocation:
    def test_steady_state_workspace_frozen(self, rng):
        """After the engine is built, no solve path allocates workspace
        (the transform-pipeline discipline of tests/fft/test_pipeline.py)."""
        a, spec, lu = make_lu(rng, n=64, corner=2)
        counters = SolveCounters()
        eng = BandedSolveEngine(lu, counters=counters)
        assert counters.workspace_allocs == 2  # X, T — build-time only
        assert counters.workspace_bytes == eng.workspace_bytes()

        rhs = rng.standard_normal((4, 64))
        rhc = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        cols = rng.standard_normal((4, 64, 5))
        eng.solve(rhs)  # warm-up
        snap = counters.snapshot()
        for _ in range(4):
            eng.solve(rhs)
            eng.solve(rhc)
            eng.solve_many(cols)
            eng.solve_stack([rhc, rhs])
        after = counters.snapshot()
        assert after["workspace_allocs"] == snap["workspace_allocs"]
        assert after["workspace_bytes"] == snap["workspace_bytes"]
        # execution counters did move
        assert after["solves"] == snap["solves"] + 16
        assert after["sweeps"] > snap["sweeps"]
        assert after["columns"] == snap["columns"] + 4 * (1 + 2 + 5 + 3)

    def test_counters_report(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        eng = lu.engine()
        eng.solve(rng.standard_normal((4, 32)))
        rep = eng.counters.report()
        assert "workspace_bytes=" in rep and "solves=" in rep


class TestValidation:
    def test_default_block(self):
        assert default_block(9) == 9
        assert default_block(16) == 16
        assert default_block(65) == 16
        assert default_block(1024) == 16

    def test_bad_block_raises(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        with pytest.raises(ValueError):
            BandedSolveEngine(lu, block=-2)

    def test_rhs_shape_mismatch(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        with pytest.raises(ValueError):
            lu.engine().solve(rng.standard_normal((2, 32)))
        with pytest.raises(ValueError):
            lu.engine().solve_many(rng.standard_normal((4, 32)))

    def test_solve_many_rejects_complex(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        with pytest.raises(TypeError):
            lu.solve_many(rng.standard_normal((4, 32, 2)) + 0j)

    def test_single_vector_squeeze(self, rng):
        a, spec, lu = make_lu(rng, n=32, nbatch=1)
        rhs = rng.standard_normal(32)
        x = lu.engine().solve(rhs)
        assert x.shape == (32,)
        np.testing.assert_allclose(x, np.linalg.solve(a[0], rhs), atol=1e-9)

    def test_engine_cached_per_block(self, rng):
        a, spec, lu = make_lu(rng, n=40)
        assert lu.engine() is lu.engine()
        assert lu.engine(block=8) is lu.engine(block=8)
        assert lu.engine(block=8) is not lu.engine(block=16)
