"""Tests for partitioning, reassembly, array interpolation, and overlap-add."""

import numpy as np
import pytest

from codedmm.blocks import (
    MatrixF,
    assemble,
    assemble_array,
    assemble_product,
    overlap_add,
    partition,
    partition_vector,
    read_matrix_text,
    write_matrix_text,
)
from codedmm.errors import BlockShapeMismatch, FieldMismatch
from codedmm.field import PrimeField, interpolate_arrays, lagrange_interpolate

from oracles import direct_convolution, oracle_product, random_matrix


class TestMatrixF:
    def test_construction_reduces(self, gf7):
        m = MatrixF(gf7, [[8, -1], [7, 14]])
        assert m.data.tolist() == [[1, 6], [0, 0]]

    def test_matmul_matches_oracle(self, gf257, rng):
        a = random_matrix(gf257, 3, 4, rng)
        b = random_matrix(gf257, 3, 5, rng)
        assert (a.transpose() @ b) == oracle_product(a, b)

    def test_shape_mismatch(self, gf7):
        with pytest.raises(BlockShapeMismatch):
            MatrixF(gf7, [[1, 2]]) + MatrixF(gf7, [[1], [2]])
        with pytest.raises(BlockShapeMismatch):
            MatrixF(gf7, [[1, 2]]) @ MatrixF(gf7, [[1, 2]])

    def test_field_mismatch(self, gf7, gf257):
        with pytest.raises(FieldMismatch):
            MatrixF(gf7, [[1]]) + MatrixF(gf257, [[1]])


class TestPartition:
    def test_column_split_example(self, gf7):
        grid = partition(MatrixF(gf7, [[1], [2]]), 2, 1)
        assert grid[0, 0].data.tolist() == [[1]]
        assert grid[1, 0].data.tolist() == [[2]]
        assert grid.original_shape == (2, 1)

    def test_padding_three_by_three(self, gf7):
        m = MatrixF(gf7, [[1, 2, 3], [4, 5, 6], [0, 1, 2]])
        grid = partition(m, 2, 2)
        assert grid.block_shape == (2, 2)
        assert grid[0, 0].data.tolist() == [[1, 2], [4, 5]]
        assert grid[1, 1].data.tolist() == [[2, 0], [0, 0]]  # zero padded row/col

    def test_roundtrip_exhaustive_small(self, gf7, rng):
        for s in range(1, 9):
            for r in range(1, 9):
                m = random_matrix(gf7, s, r, rng)
                for p in range(1, 5):
                    for k in range(1, 5):
                        grid = partition(m, p, k)
                        back = assemble(grid.blocks)
                        assert back.data[:s, :r].tolist() == m.data.tolist()
                        # padding region is all zero
                        assert int(np.sum(back.data)) % 7 == int(np.sum(m.data)) % 7

    def test_block_product_identity(self, gf257, rng):
        # sum_j A[j,k]^T B[j,k'] equals the (k,k') block of A^T B (divisible dims)
        p, m, n = 2, 3, 2
        a = random_matrix(gf257, 4, 6, rng)
        b = random_matrix(gf257, 4, 4, rng)
        a_grid = partition(a, p, m)
        b_grid = partition(b, p, n)
        product = oracle_product(a, b)
        for k in range(m):
            for kp in range(n):
                acc = a_grid[0, k].transpose() @ b_grid[0, kp]
                for j in range(1, p):
                    acc = acc + (a_grid[j, k].transpose() @ b_grid[j, kp])
                br, bc = acc.shape
                expected = product.data[k * br:(k + 1) * br, kp * bc:(kp + 1) * bc]
                assert acc.data.tolist() == expected.tolist()


class TestAssembleProduct:
    def test_single_block_truncation(self, gf7):
        blk = MatrixF(gf7, [[1, 2], [3, 4]])
        out = assemble_product([[blk]], (1, 2))
        assert out.data.tolist() == [[1, 2]]

    def test_block_diagonal(self, gf7):
        eye = MatrixF(gf7, [[1, 0], [0, 1]])
        zero = MatrixF(gf7, [[0, 0], [0, 0]])
        out = assemble_product([[eye, zero], [zero, eye]], (4, 4))
        assert out.data.tolist() == np.eye(4, dtype=int).tolist()

    def test_full_pipeline_against_oracle(self, gf257, rng):
        a = random_matrix(gf257, 4, 4, rng)
        b = random_matrix(gf257, 4, 4, rng)
        p, m, n = 2, 2, 2
        a_grid = partition(a, p, m)
        b_grid = partition(b, p, n)
        grid = []
        for k in range(m):
            row = []
            for kp in range(n):
                acc = a_grid[0, k].transpose() @ b_grid[0, kp]
                for j in range(1, p):
                    acc = acc + (a_grid[j, k].transpose() @ b_grid[j, kp])
                row.append(acc)
            grid.append(row)
        assert assemble_product(grid, (4, 4)) == oracle_product(a, b)

    @pytest.mark.parametrize("q", [7, 2**61 - 1])
    def test_matches_np_block(self, q, rng):
        field = PrimeField(q)
        for rows, cols, br, bc in ((1, 1, 1, 1), (3, 1, 1, 1), (2, 3, 2, 1), (2, 2, 3, 4)):
            grid = [[random_matrix(field, br, bc, rng) for _ in range(cols)] for _ in range(rows)]
            want = np.block([[blk.data for blk in row] for row in grid])
            got = assemble(grid).data
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("q", [7, 2**61 - 1])
    def test_array_form_matches_grid_form(self, q, rng):
        field = PrimeField(q)
        grid = [[random_matrix(field, 3, 2, rng) for _ in range(3)] for _ in range(2)]
        stacked = np.stack([np.stack([blk.data for blk in row]) for row in grid])
        for dims in (None, (6, 6), (5, 4)):
            want = assemble_product(grid, dims).data
            got = assemble_array(stacked, dims)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        with pytest.raises(BlockShapeMismatch):
            assemble_array(stacked, (7, 6))

    def test_ragged_grid(self, gf7):
        # the ValueError np.block raised for a ragged grid
        blk = MatrixF(gf7, [[1]])
        with pytest.raises(ValueError):
            assemble([[blk, blk], [blk]])


class TestPartitionVector:
    def test_even_split(self, gf7):
        halves = partition_vector(gf7, [1, 2, 3, 4], 2)
        assert [h.tolist() for h in halves] == [[1, 2], [3, 4]]

    def test_padding(self, gf7):
        halves = partition_vector(gf7, [1, 2, 3, 4, 5], 2)
        assert [h.tolist() for h in halves] == [[1, 2, 3], [4, 5, 0]]

    def test_forced_block_len(self, gf7):
        parts = partition_vector(gf7, [1, 2, 3], 2, block_len=3)
        assert [p.tolist() for p in parts] == [[1, 2, 3], [0, 0, 0]]
        with pytest.raises(BlockShapeMismatch):
            partition_vector(gf7, [1, 2, 3, 4, 5], 2, block_len=2)


class TestOverlapAdd:
    def test_single_block_identity(self, gf257):
        blk = np.array([1, 2, 3, 4, 5])  # s = 3, length 2s-1
        out = overlap_add(gf257, [blk], 3)
        assert out.tolist() == [1, 2, 3, 4, 5]

    def test_impulse(self, gf257):
        # delta * delta with two blocks: conv blocks shifted by s
        s = 2
        blocks = [np.array([1, 0, 0]), np.array([0, 0, 0]), np.array([0, 0, 0])]
        out = overlap_add(gf257, blocks, s)
        assert out.tolist() == [1, 0, 0, 0, 0, 0, 0]

    def test_matches_direct_convolution(self, gf257, rng):
        q = 257
        s, m, n = 3, 2, 2
        a = [rng.randrange(q) for _ in range(m * s)]
        b = [rng.randrange(q) for _ in range(n * s)]
        a_blocks = partition_vector(gf257, a, m)
        b_blocks = partition_vector(gf257, b, n)
        diag = []
        for d in range(m + n - 1):
            acc = np.zeros(2 * s - 1, dtype=np.int64)
            for j in range(m):
                k = d - j
                if 0 <= k < n:
                    acc = (acc + np.array(direct_convolution(q, a_blocks[j].tolist(), b_blocks[k].tolist()))) % q
            diag.append(acc)
        out = overlap_add(gf257, diag, s)
        assert out[: m * s + n * s - 1].tolist() == direct_convolution(q, a, b)

    def test_length_mismatch(self, gf257):
        with pytest.raises(BlockShapeMismatch):
            overlap_add(gf257, [np.array([1, 2])], 3)


class TestBlockInterpolation:
    def test_one_by_one_reduces_to_scalar(self, gf7, rng):
        xs = [0, 1, 2, 4]
        ys = [rng.randrange(7) for _ in xs]
        coeffs = interpolate_arrays(gf7, xs, [np.array([[y]]) for y in ys])
        scalar = lagrange_interpolate([(gf7(x), gf7(y)) for x, y in zip(xs, ys)])
        got = [int(c[0, 0]) for c in coeffs]
        want = list(scalar.coeffs) + [0] * (len(xs) - len(scalar.coeffs))
        assert got == want

    def test_constant_polynomial(self, gf7):
        m = MatrixF(gf7, [[1, 2], [3, 4]])
        coeffs = interpolate_arrays(gf7, [0, 1, 2], [m.data] * 3)
        assert np.array_equal(coeffs[0], m.data)
        assert not coeffs[1:].any()

    def test_commutes_with_entry_selection(self, gf257, rng):
        pts = []
        for x in (0, 1, 2, 3, 5):
            pts.append((x, random_matrix(gf257, 2, 3, rng)))
        coeffs = interpolate_arrays(gf257, [x for x, _ in pts], [blk.data for _, blk in pts])
        for u in range(2):
            for v in range(3):
                scalar = lagrange_interpolate(
                    [(gf257(x), blk.entry(u, v)) for x, blk in pts]
                )
                for d, coeff in enumerate(coeffs):
                    assert int(coeff[u, v]) == scalar.coefficient(d)

    def test_shape_mismatch(self, gf7):
        with pytest.raises(ValueError):
            interpolate_arrays(gf7, [0, 1], [np.array([[1]]), np.array([[1, 2]])])


class TestMatrixText:
    def test_roundtrip(self, gf257, rng):
        m = random_matrix(gf257, 3, 4, rng)
        again = read_matrix_text(write_matrix_text(m))
        assert again == m

    def test_known_fixture(self):
        m = read_matrix_text("2 2 7\n1 2\n3 11\n")
        assert m.field.modulus == 7
        assert m.data.tolist() == [[1, 2], [3, 4]]
