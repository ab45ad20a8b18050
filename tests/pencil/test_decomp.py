"""Pencil decomposition block arithmetic tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pencil.decomp import (
    PencilDecomp,
    block_range,
    block_size,
    block_slices,
    max_slab_ranks,
)


class TestBlockRange:
    @given(
        n=st.integers(min_value=1, max_value=500),
        p=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, p):
        """Blocks tile [0, n) exactly, in order, with sizes differing by <= 1."""
        if p > n:
            return
        ranges = [block_range(n, p, i) for i in range(p)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (s0, e0), (s1, _e1) in zip(ranges, ranges[1:]):
            assert e0 == s1
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            block_range(10, 4, 4)

    def test_block_slices_cover(self):
        sl = block_slices(10, 3)
        assert [s.start for s in sl] == [0, 4, 7]
        assert [s.stop for s in sl] == [4, 7, 10]

    def test_block_size(self):
        assert block_size(10, 3, 0) == 4
        assert block_size(10, 3, 2) == 3


class TestPencilDecomp:
    def make(self, rank, pa=2, pb=3):
        return PencilDecomp.for_rank(mx=8, mz=15, ny=12, nxq=24, nzq=24, pa=pa, pb=pb, rank=rank)

    def test_for_rank_coords(self):
        d = self.make(4)  # (a, b) = (1, 1) in a 2x3 grid
        assert (d.a, d.b) == (1, 1)

    def test_y_pencil_shapes_tile_spectral_grid(self):
        total = 0
        for rank in range(6):
            d = self.make(rank)
            sx, sz, ny = d.y_pencil_shape
            total += sx * sz
        assert total == 8 * 15

    def test_z_pencil_keeps_full_z(self):
        d = self.make(2)
        assert d.z_pencil_shape_spec[1] == 15
        assert d.z_pencil_shape_phys[1] == 24

    def test_x_pencil_keeps_full_x(self):
        d = self.make(5)
        assert d.x_pencil_shape_spec[0] == 8
        assert d.x_pencil_shape_phys[0] == 24

    def test_y_full_in_y_pencil(self):
        d = self.make(0)
        assert d.y_pencil_shape[2] == 12

    def test_validate_rejects_overdecomposition(self):
        d = PencilDecomp.for_rank(mx=2, mz=15, ny=12, nxq=24, nzq=24, pa=4, pb=1, rank=0)
        with pytest.raises(ValueError):
            d.validate()


class TestSlabCeiling:
    """The §2.2 objection to a slab decomposition, quantified."""

    def test_rank_ceiling(self):
        nx, nz = 16, 16
        assert max_slab_ranks(nx, nz, dealias=True) == min(nx // 2, 3 * nz // 2)

    def test_paper_production_grid_ceiling(self):
        """10240 x 1536 x 7680: a slab code caps at 5,120 ranks — two
        orders of magnitude below the paper's 524,288 cores."""
        ceiling = max_slab_ranks(10240, 7680)
        assert ceiling == 5120
        assert 524288 / ceiling > 100

    def test_pencil_has_no_such_ceiling(self):
        """The pencil decomposition reaches P = mx * min(mz, ny) ranks."""
        mx, mz, ny = 10240 // 2, 7680 - 1, 1536
        pencil_ceiling = mx * min(mz, ny)
        assert pencil_ceiling > 524288
