"""The exact modular kernel against the Python-int oracle.

modmatmul runs tiny int64 products as one int64 matmul, exact while every
sum stays below 2^63; these tests sit at, below and above its size bound,
on every operand layout.  Larger ones run on float64 BLAS and reduce the
products without division, which is exact only while a dot product of
canonical entries plus one canonical partial stays below 2^50; these tests
check the reduction itself up to that bound, sit on both sides of the chunk
boundary, on row slabs, column tiles and stack groups that reuse one set of
buffers (tiny products sent there past the int64 matmul), and on the
worst-case entry q - 1.  Operands that do not multiply are refused on
every branch, and an empty output past the int64 matmul's bound is zeros.
The combiner that every encoder and decoder runs, on the same tile loop,
is checked on parts of every shape, read in place from strided views, in
slabs of part-rows, pieces of one part-row and slabs of weight rows, and
written into the block views of an assembled product; past the float64
bound its int64 combinations run on the limbs.  Allocation guards bound the fresh memory
of the kernel, the encoder and the decoder by their results, which a
repeated call takes from the result pool, and one test runs the kernel and
the FFT convolution that shares its workspace in two threads at once.  The
pool never hands out memory that a result or any view of it still holds,
reuses what none holds, and keeps under its byte cap, across threads too.
Over large fields the 21-bit limb path is checked at five moduli from 2^21
to 2^63, at its chunk bound and size threshold, on every layout, and on
integer representatives of any size and sign.
"""

import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from codedmm import field as field_module
from codedmm.blocks import MatrixF, padded_blocks
from codedmm.convolution import field_convolve
from codedmm.field import PrimeField, combine, exact_float_terms, exact_limb_terms, is_prime, modmatmul, mulmod
from codedmm.schemes import EntangledCode, worker_multiply

from oracles import naive_matmul_t

# the largest prime below 2^21, the largest modulus on the int64 path
Q_INT64_MAX = 2097143
MODULI = (2, 7, 65537, Q_INT64_MAX, (1 << 61) - 1)
SHAPES = [(1, 1, 1), (1, 5, 1), (3, 1, 4), (2, 7, 3), (5, 4, 1), (4, 6, 9)]


def operands(q: int, rows: int, inner: int, cols: int, seed: int, dtype=None):
    """Random canonical operands with every third entry at the extreme q - 1."""
    dtype = dtype or PrimeField(q).array_dtype
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(rows, inner), dtype=np.int64)
    b = rng.integers(0, q, size=(inner, cols), dtype=np.int64)
    a.flat[::3] = q - 1
    b.flat[::3] = q - 1
    return a.astype(dtype), b.astype(dtype)


def near_maximal(q: int, rows: int, inner: int, cols: int):
    """Entries q - 1, with every 7th at q - 2 so that the exact sums are odd.

    At q = Q_INT64_MAX a sum of more than 256 such products reaches 2^50,
    past which the division-free reduction may be off by one: one pass too
    long is inexact.
    """
    dtype = PrimeField(q).array_dtype
    a = np.full((rows, inner), q - 1, dtype=np.int64)
    b = np.full((inner, cols), q - 1, dtype=np.int64)
    a.flat[::7] = q - 2
    b.flat[::7] = q - 2
    return a.astype(dtype), b.astype(dtype)


def check(q: int, a: np.ndarray, b: np.ndarray):
    got = modmatmul(a, b, q)
    assert got.dtype == a.dtype
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == naive_matmul_t(q, a.T.tolist(), b.tolist())


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_oracle(q, shape):
    check(q, *operands(q, *shape, seed=sum(shape)))


@pytest.mark.parametrize("q", MODULI)
def test_near_maximal_entries(q):
    check(q, *near_maximal(q, 3, 40, 2))


def test_int64_operands_beyond_the_float_bound():
    # no contraction of int64 entries is float-exact here; Python ints take over
    q = (1 << 61) - 1
    assert exact_float_terms(q) == 0
    check(q, *operands(q, 3, 4, 2, seed=1, dtype=np.int64))


# (q, a's shape, b's shape) of products whose operands do not fit together,
# one on each branch of modmatmul
MISMATCHED = {
    "int64 matmul": (65537, (2, 3), (4, 2)),
    "tiles, one tile": (65537, (20, 10), (20, 30)),
    "tiles, b longer": (65537, (200, 100), (200, 300)),
    "tiles, b shorter": (65537, (60, 100), (200, 100)),
    "tiles, stacks": (65537, (2, 200, 100), (3, 100, 300)),
    "python ints": ((1 << 61) - 1, (2, 3), (4, 2)),
    "limbs": ((1 << 61) - 1, (20, 30), (40, 20)),
    "limbs, stacks": ((1 << 61) - 1, (2, 20, 30), (3, 30, 20)),
}


@pytest.mark.parametrize("q, a_shape, b_shape", MISMATCHED.values(), ids=MISMATCHED)
def test_mismatched_operands_are_refused(q, a_shape, b_shape):
    # an inner dimension or stack length that disagrees is refused on every
    # branch, never read as a product of b's leading rows or of fewer entries
    dtype = PrimeField(q).array_dtype
    a, b = (np.ones(shape, dtype=np.int64).astype(dtype) for shape in (a_shape, b_shape))
    with pytest.raises(ValueError, match="do not multiply"):
        modmatmul(a, b, q)


def test_int64_operands_past_2_pow_63_are_refused():
    # int64 cannot hold residues mod 2^89 - 1: the operands are refused by
    # name, not converted until a result entry overflows
    q = (1 << 89) - 1
    a = np.full((2, 2), 1 << 40, dtype=np.int64)
    with pytest.raises(ValueError, match=f"int64.*{q}"):
        modmatmul(a, a, q)


def test_chunk_length_at_the_largest_int64_modulus():
    # (2^50 - q) // (q - 1)^2: a chunk and one canonical partial stay below 2^50
    assert exact_float_terms(Q_INT64_MAX) == 256
    assert exact_float_terms(65537) == 2**18 - 1


def test_int64_branch_sums_stay_below_2_pow_63():
    # the longest contraction the int64 branch takes is _INT64_MUL_ADDS terms
    # (one row, one column); at the largest int64-path prime its sum of
    # (q - 1)^2 products still fits int64, so the branch serves every prime
    # of the path up to its bound
    q = next(p for p in range(field_module._INT64_SAFE_MODULUS - 1, 1, -1) if is_prime(p))
    assert q == Q_INT64_MAX
    assert field_module._INT64_MUL_ADDS * (q - 1) ** 2 < 1 << 63


@pytest.fixture
def float_paths(monkeypatch):
    """The moduli of the products that went past the int64 branch, to the float64 paths' exact_float_terms."""
    calls = []
    monkeypatch.setattr(field_module, "exact_float_terms", lambda q: calls.append(q) or exact_float_terms(q))
    return calls


@pytest.mark.parametrize("q", [65537, Q_INT64_MAX])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_int64_branch_up_to_its_bound(q, offset, float_paths):
    # products of at most _INT64_MUL_ADDS multiply-adds, entries q - 1,
    # take the int64 branch; one more goes to the float64 paths
    bound = field_module._INT64_MUL_ADDS
    for rows, inner, cols in [(1, bound + offset, 1), (4, bound // 16 + offset, 4)]:
        for a, b in (near_maximal(q, rows, inner, cols), operands(q, rows, inner, cols, seed=inner)):
            a[:] = q - 1
            check(q, a, b)
        assert bool(float_paths) == (rows * inner * cols > bound)
        float_paths.clear()


@pytest.mark.parametrize("q", [65537, Q_INT64_MAX])
def test_int64_branch_layouts(q, float_paths):
    # stacked operands, a shared operand, transposed views and inner = 1,
    # all within the bound, against the oracle
    check_stacked(q, distinct_operands(q, 3, 5, 2))
    check_stacked(q, distinct_operands(q, 4, 1, 3))
    for a, b in shared_and_stacked(q, 3, 4, 2):
        got = modmatmul(a, b, q)
        for out, x, y in zip(got, np.broadcast_to(a, (5, 3, 4)), np.broadcast_to(b, (5, 4, 2))):
            assert out.tolist() == naive_matmul_t(q, x.T.tolist(), y.tolist())
    a, b = near_maximal(q, 6, 7, 5)
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    check(q, at.T, bt.T)  # transposed views of C-order arrays
    check(q, a[::2, ::3], b[::3, 1::2])  # strided views
    check(q, *near_maximal(q, 9, 1, 8))
    assert not float_paths


@pytest.mark.parametrize("accumulate", [False, True], ids=["product", "accumulated"])
@pytest.mark.parametrize("q", [2, 3, 65537, Q_INT64_MAX])
def test_reduce_is_exact_up_to_its_bound(q, accumulate):
    # p = kq - 1, kq and kq + 1 for the smallest k and the 500 largest below
    # the bound, where p times the reciprocal's error nears 1: a quotient
    # one too small leaves q, one too large a negative remainder.  With
    # accumulate, p is split into a product and a canonical partial.
    top = field_module._REDUCE_EXACT - 1
    ks = np.r_[0:64, top // q - 500:top // q + 1]
    p = (ks[:, None] * q + np.array([-1, 0, 1])).ravel()
    p = p[(p >= 0) & (p <= top)]
    partial = np.random.default_rng(q).integers(0, np.minimum(p, q - 1) + 1) if accumulate else 0
    product = (p - partial).astype(np.float64)
    store = np.full((len(p), 2), -1, dtype=np.int64)
    out = store[:, 0]  # a strided view, as a tile of the result is
    out[:] = partial
    field_module._reduce(product, np.empty_like(product), q, out, accumulate)
    assert out.tolist() == [x % q for x in p.tolist()]
    assert (store[:, 1] == -1).all()


@pytest.mark.parametrize("inner", [255, 256, 257, 2047, 2048, 2049])
def test_contraction_lengths_around_one_chunk(inner):
    q = Q_INT64_MAX
    check(q, *operands(q, 2, inner, 3, seed=inner))
    check(q, *near_maximal(q, 2, inner, 3))


@pytest.fixture
def tiles(monkeypatch):
    """Send every int64 product, however small, through the tiles: past the int64 matmul."""
    monkeypatch.setattr(field_module, "_INT64_MUL_ADDS", 0)


@pytest.mark.parametrize("cols", [1, 2, 3, 5, 7])
def test_output_widths_straddling_column_tiles(monkeypatch, cols):
    # a 6-entry budget cannot hold one column of a 256-term chunk: 1-column tiles
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 6)
    for q in (7, Q_INT64_MAX):
        check(q, *operands(q, 3, 2049, cols, seed=cols))
        check(q, *near_maximal(q, 3, 2049, cols))


def test_real_tile_width_straddled():
    q = 65537
    cols = field_module._TILE_ELEMS // 4 + 1  # with two rows, one column past one matmul
    check(q, *operands(q, 2, 3, cols, seed=2))


def test_empty_contraction_is_zero():
    got = modmatmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 7)
    assert got.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_empty_contraction_past_the_single_matmul_bound():
    # an output too large for one matmul, but with no terms to tile
    cols = field_module._TILE_ELEMS + 1
    got = modmatmul(np.zeros((1, 0), dtype=np.int64), np.zeros((0, cols), dtype=np.int64), 7)
    assert got.shape == (1, cols) and not got.any()


@pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
def test_empty_output_past_the_int64_bound(rows, cols):
    # the shortest contraction whose int64 sums could pass 2^63 at
    # Q_INT64_MAX: no int64 matmul, and no tile either for an empty output;
    # zero-stride operands, so the test allocates nothing
    q = Q_INT64_MAX
    inner = -(-(1 << 63) // (q - 1) ** 2)
    assert (inner - 1) * (q - 1) ** 2 < 1 << 63 <= inner * (q - 1) ** 2
    a = np.broadcast_to(np.int64(q - 1), (rows, inner))
    b = np.broadcast_to(np.int64(q - 1), (inner, cols))
    got = modmatmul(a, b, q)
    assert got.dtype == np.int64 and got.shape == (rows, cols)


def test_worker_product_of_length_2_pow_22_does_not_overflow():
    # 2^22 * (q-1)^2 overflows int64; the answer is 2^22 mod q = 18
    q = Q_INT64_MAX
    field = PrimeField(q)
    col = MatrixF(field, np.full((1 << 22, 1), q - 1, dtype=np.int64))
    assert worker_multiply(col, col).data.tolist() == [[18]]


def check_stacked(q: int, pairs):
    """modmatmul of the stacked operands against the oracle, one product at a time."""
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    got = modmatmul(a, b, q)
    assert got.dtype == a.dtype
    assert got.shape == (len(pairs), a.shape[1], b.shape[2])
    for out, (x, y) in zip(got, pairs):
        assert out.tolist() == naive_matmul_t(q, x.T.tolist(), y.tolist())


def distinct_operands(q: int, rows: int, inner: int, cols: int):
    """Three different operand pairs, the last one near-maximal."""
    return [
        operands(q, rows, inner, cols, seed=inner),
        operands(q, rows, inner, cols, seed=inner + 1),
        near_maximal(q, rows, inner, cols),
    ]


@pytest.mark.parametrize("q", MODULI)
def test_stacked_matches_oracle(q):
    check_stacked(q, distinct_operands(q, 3, 5, 2))


@pytest.mark.parametrize("inner", [255, 256, 257, 2047, 2048, 2049])
def test_stacked_contraction_lengths_around_one_chunk(inner):
    check_stacked(Q_INT64_MAX, distinct_operands(Q_INT64_MAX, 2, inner, 3))


@pytest.mark.parametrize("cols", [1, 2, 3, 5])
def test_stacked_widths_straddling_column_tiles(monkeypatch, cols):
    # a 2049-term contraction needs nine chunks, so every product is tiled;
    # 12 entries per tile cannot hold one chunk's operands: 1-column tiles
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 12)
    check_stacked(Q_INT64_MAX, distinct_operands(Q_INT64_MAX, 2, 2049, cols))


@pytest.mark.parametrize("extra", [0, 1])
def test_output_row_wider_than_a_tile(extra):
    # (1 x 3) @ (3 x (2^17 + extra)) needs over 5 * 2^17 entries for its
    # operand copies and output, above the 2^18-entry budget, so its columns
    # go in tiles of 2^18 // 5, the last one narrower
    q = Q_INT64_MAX
    check(q, *operands(q, 1, 3, field_module._TILE_ELEMS // 2 + extra, seed=extra))


@pytest.mark.parametrize("stack", [3, 4])
def test_stacked_entries_tiled_one_at_a_time(monkeypatch, tiles, stack):
    # one (2 x 5) @ (5 x 2) product needs 28 entries of tile scratch, above
    # the 24-entry budget, so every stack entry is a tile of its own
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 24)
    q = Q_INT64_MAX
    pairs = [operands(q, 2, 5, 2, seed=s) for s in range(stack - 1)] + [near_maximal(q, 2, 5, 2)]
    check_stacked(q, pairs)


@pytest.mark.parametrize("q", [1048573, Q_INT64_MAX])
@pytest.mark.parametrize("past", [0, 1])
def test_contraction_at_and_past_one_chunk(q, past):
    # inner == step is exact in one float64 pass; step + 1 needs a second chunk
    inner = exact_float_terms(q) + past
    check(q, *near_maximal(q, 2, inner, 3))
    check_stacked(q, [near_maximal(q, 2, inner, 3), operands(q, 2, inner, 3, seed=past)])


def test_stacked_entries_larger_than_a_tile(monkeypatch, tiles):
    # each 3 x 5 product alone exceeds 12 entries: its columns are split
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 12)
    q = 65537
    check_stacked(q, [operands(q, 3, 2, 5, seed=s) for s in range(3)] + [near_maximal(q, 3, 2, 5)])


def test_shared_matrix_times_stack(monkeypatch, tiles):
    # a 2-D operand multiplies every entry of the other's stack, tiled or not
    q = Q_INT64_MAX
    w, _ = near_maximal(q, 3, 4, 1)
    blocks = np.stack([operands(q, 4, 5, 1, seed=s)[0] for s in range(3)])
    want = [modmatmul(w, blk, q).tolist() for blk in blocks]
    for tile in (field_module._TILE_ELEMS, 12):
        monkeypatch.setattr(field_module, "_TILE_ELEMS", tile)
        got = modmatmul(w, blocks, q)
        assert got.shape == (3, 3, 5)
        assert [g.tolist() for g in got] == want
        assert want == [naive_matmul_t(q, w.T.tolist(), blk.tolist()) for blk in blocks]


def shared_and_stacked(q: int, rows: int, inner: int, cols: int):
    """(a, b) layouts of a 5-entry stack: both stacked, a shared, b shared."""
    pairs = [operands(q, rows, inner, cols, seed=inner + s) for s in range(4)]
    pairs.append(near_maximal(q, rows, inner, cols))
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    return [(a, b), (a[-1], b), (a, b[-1])]


@pytest.mark.parametrize("tile", [6, 12, 40])
@pytest.mark.parametrize("inner", [1, 2, 256, 257, 2047, 2048, 2049])
def test_reused_tile_buffers(monkeypatch, tiles, tile, inner):
    # Every tile reuses one product and one scratch buffer sized for the
    # largest tile.  With 2 rows and 1 term, a 12-entry budget cuts 5 columns
    # into tiles of 2, 2 and 1, a 6-entry budget into 1 x 1 tiles, and a
    # 40-entry budget groups two 2 x 3 entries, so a 5-entry stack ends in a
    # group of one.  From 256 terms every tile is 1 x 1, and from 257 several
    # chunks accumulate into each.
    monkeypatch.setattr(field_module, "_TILE_ELEMS", tile)
    q = Q_INT64_MAX
    for cols in (3, 5):
        for a, b in shared_and_stacked(q, 2, inner, cols):
            got = modmatmul(a, b, q)
            a_s = np.broadcast_to(a, got.shape[:1] + a.shape[-2:])
            b_s = np.broadcast_to(b, got.shape[:1] + b.shape[-2:])
            assert got.shape == (5, 2, cols)
            for out, x, y in zip(got, a_s, b_s):
                assert out.tolist() == naive_matmul_t(q, x.T.tolist(), y.tolist())


def pool_class(nbytes: int) -> int:
    """The size of the pool buffer that holds a result of nbytes."""
    return 1 << (nbytes - 1).bit_length()


@pytest.mark.parametrize("rows, inner", [(12, 4), (4, 9)])
def test_scratch_does_not_grow_with_output_width(rows, inner):
    # the encode (12, 4) @ (4, W) and decode (4, 9) @ (9, W) shapes of a
    # 2 x 2 x 2 entangled code: tiles bound the scratch beyond the output,
    # whose buffer a repeated product reuses once the first result is dropped
    q = 65537
    rng = np.random.default_rng(rows)
    a = rng.integers(0, q, size=(rows, inner))
    for width in (1 << 14, 1 << 18):
        b = rng.integers(0, q, size=(inner, width))
        _, peak = traced_peak(lambda: modmatmul(a, b, q))
        assert peak <= 64 << 10
        out, peak = traced_peak(lambda: modmatmul(a, b, q), hold=True)
        assert peak <= pool_class(out.nbytes) + (64 << 10)


def test_rows_whose_a_chunk_fills_the_workspace():
    # one 512-term chunk of a 512-row a fills the 2^18-entry workspace, so
    # at 511, 512 and 513 rows the product goes in row slabs, and the three
    # write into pooled results of one size class, all held at once
    q = 65537
    inner, cols = 512, 40
    assert 511 * inner < field_module._TILE_ELEMS < 513 * inner
    pairs = [operands(q, rows, inner, cols, seed=rows) for rows in (511, 512, 513)]
    got = [modmatmul(a, b, q) for a, b in pairs]
    for out, (a, b) in zip(got, pairs):
        assert out.shape == (len(a), cols)
        # every 13th column: the first, last and two between
        assert out[:, ::13].tolist() == naive_matmul_t(q, a.T.tolist(), b[:, ::13].tolist())


@pytest.mark.parametrize("inner", [255, 256, 257])
@pytest.mark.parametrize("rows", [511, 512, 513, 1024])
def test_row_slabs_and_column_tiles(rows, inner):
    # a 256-term chunk of these rows fills half the workspace or more, so
    # the products go in slabs of at most 256 rows and column tiles of at
    # most 256 columns; at 257 terms a second chunk accumulates into each
    q = Q_INT64_MAX
    cols = 600
    a, b = operands(q, rows, inner, cols, seed=rows + inner)
    got = modmatmul(a, b, q)
    assert got.shape == (rows, cols)
    # every 97th column and the last reach every column tile, all rows every slab
    sample = [*range(0, cols, 97), cols - 1]
    assert got[:, sample].tolist() == naive_matmul_t(q, a.T.tolist(), b[:, sample].tolist())


@pytest.mark.parametrize("budget", [37, 36])
def test_operand_copies_at_and_past_the_single_matmul_bound(monkeypatch, tiles, budget):
    # (2 x 5) @ (5 x 3): float64 copies of both operands (25 entries), the
    # float64 result and its int64 copy (12) take one matmul in a 37-entry
    # budget and go in tiles in a 36-entry one; both are exact
    monkeypatch.setattr(field_module, "_TILE_ELEMS", budget)
    q = Q_INT64_MAX
    check(q, *operands(q, 2, 5, 3, seed=budget))
    check(q, *near_maximal(q, 2, 5, 3))


@pytest.mark.parametrize("budget", [84, 83])
def test_stacked_operand_copies_at_and_past_the_single_matmul_bound(monkeypatch, tiles, budget):
    # three stacked (2 x 5) @ (5 x 2) products: 60 operand entries, 24 of
    # float64 and int64 output, one matmul in 84 entries, tiles in 83
    monkeypatch.setattr(field_module, "_TILE_ELEMS", budget)
    q = Q_INT64_MAX
    check_stacked(q, [operands(q, 2, 5, 2, seed=s) for s in range(2)] + [near_maximal(q, 2, 5, 2)])


def test_long_contraction_scratch_fits_the_budget():
    # a 900-entry output of a 5000-term contraction: the float64 copies of
    # the whole operands would take 12 MB, so it goes in column tiles whose
    # scratch is the budget plus the one float64 copy of a they share
    q = 65537
    rows, inner, cols = 3, 5000, 300
    a, b = operands(q, rows, inner, cols, seed=3)
    tracemalloc.start()
    try:
        out = modmatmul(a, b, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 8 * (field_module._TILE_ELEMS + rows * inner) + (64 << 10)
    # every 7th column reaches each tile of at most 52 columns
    assert out[:, ::7].tolist() == naive_matmul_t(q, a.T.tolist(), b[:, ::7].tolist())


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["scalar", "vector", "block"])
def test_combine_parts_of_any_shape(q, shape):
    # output [i] is sum_t weights[i, t] * parts[t], entry by entry, on the
    # int64 path (q = 65537) and the object path (q = 2^61 - 1)
    field = PrimeField(q)
    weights, _ = operands(q, 3, 4, 1, seed=len(shape))
    parts = np.random.default_rng(len(shape)).integers(0, q, size=(4, *shape)).astype(field.array_dtype)
    parts.flat[::3] = q - 1
    got = combine(field, weights, parts)
    assert got.dtype == field.array_dtype
    assert got.shape == (3, *shape)
    want = naive_matmul_t(q, weights.T.tolist(), parts.reshape(4, -1).tolist())
    assert got.reshape(3, -1).tolist() == want
    # a sequence of parts combines like their stack
    assert combine(field, weights, list(parts)).tolist() == got.tolist()


def combined_by_oracle(q: int, weights, parts) -> list:
    """sum_t weights[i, t] * parts[t] for every i, as nested lists of the result's shape."""
    flat = [np.reshape(p, -1).tolist() for p in parts]
    rows = naive_matmul_t(q, np.asarray(weights).T.tolist(), flat)
    return np.array(rows, dtype=object).reshape(len(weights), *np.shape(parts[0])).tolist()


@pytest.mark.parametrize("q", [33554467, (1 << 61) - 1])
@pytest.mark.parametrize("listed", [False, True], ids=["stack", "list"])
@pytest.mark.parametrize("out", ["fresh", "array", "views"])
def test_int64_combine_past_the_float_bound(q, listed, out):
    # at q > 2^25 not one float64 product of int64 entries is exact: a
    # combination too large for one int64 matmul runs on the limbs, as
    # modmatmul's products do, never in the tile loop
    assert exact_float_terms(q) == 0
    rng = np.random.default_rng(q % 1000)
    weights = rng.integers(0, q, size=(3, 5))
    parts = rng.integers(0, q, size=(5, 40, 100))
    weights[0], parts[-1] = q - 1, q - 1
    want = combined_by_oracle(q, weights, parts)
    full = np.full((40, 300), -1, dtype=np.int64)
    target = {"fresh": None, "array": np.full((3, 40, 100), -1, dtype=np.int64),
              "views": [full[:, i::3] for i in range(3)]}[out]
    got = combine(PrimeField(q), weights, list(parts) if listed else parts, out=target)
    if out == "views":
        assert got is target and full.min() >= 0
        got = np.stack(got)
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.fixture
def slabs(monkeypatch):
    """Send every int64 combination, however small, through the slab path: past the int64 matmul."""
    monkeypatch.setattr(field_module, "_INT64_MUL_ADDS", 0)


def near_maximal_weights(q: int, rows: int, cols: int) -> np.ndarray:
    return near_maximal(q, rows, cols, 1)[0]


@pytest.mark.parametrize("dims", [(8, 6), (7, 5), (130, 130)], ids=["even", "padded", "large"])
def test_combine_reads_padded_block_views(dims, request):
    # the 2 x 3 blocks of a matrix are strided views of it (of its padded
    # copy when the dimensions do not divide); the large case takes the
    # slab path at the real bound, the small ones are sent there
    if dims != (130, 130):
        request.getfixturevalue("slabs")
    q = Q_INT64_MAX
    field = PrimeField(q)
    matrix = MatrixF(field, operands(q, *dims, 1, seed=dims[0])[0])
    blocks = padded_blocks(matrix, 2, 3)
    parts = [blk for row in blocks for blk in row]
    assert not parts[1].flags.c_contiguous
    weights = near_maximal_weights(q, 4, 6)
    got = combine(field, weights, parts)
    assert got.dtype == np.int64 and got.shape == (4, *blocks.shape[2:])
    assert got.tolist() == combined_by_oracle(q, weights, parts)
    assert combine(field, weights, np.stack(parts)).tolist() == got.tolist()


@pytest.mark.parametrize("path", ["small", "slabs"])
def test_combine_into_the_block_views_of_an_assembled_matrix(path, request):
    # out is the m x n grid of block views of one (m*br, n*bc) matrix, in
    # row-major order; every entry of the matrix is written
    if path == "slabs":
        request.getfixturevalue("slabs")
    q = Q_INT64_MAX
    field = PrimeField(q)
    m, n, br, bc = 2, 3, 5, 4
    parts = [near_maximal(q, br, bc, 1)[0]] + [operands(q, br, bc, 1, seed=s)[0] for s in range(4)]
    weights = near_maximal_weights(q, m * n, len(parts))
    full = np.full((m * br, n * bc), -1, dtype=np.int64)
    grid = full.reshape(m, br, n, bc).swapaxes(1, 2)
    out = [blk for row in grid for blk in row]
    assert combine(field, weights, parts, out=out) is out
    want = combined_by_oracle(q, weights, parts)
    assert [blk.tolist() for blk in out] == want
    assert full.min() >= 0
    # an array out is filled the same way
    stacked = np.empty((m * n, br, bc), dtype=np.int64)
    assert combine(field, weights, parts, out=stacked).tolist() == want


def test_combine_refuses_an_out_of_the_wrong_shape():
    field = PrimeField(65537)
    weights = np.ones((2, 3), dtype=np.int64)
    parts = np.ones((3, 4, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        combine(field, weights, parts, out=[np.empty((4, 4), dtype=np.int64)])
    with pytest.raises(ValueError):
        combine(field, weights, parts, out=np.empty((2, 4, 5), dtype=np.int64))


@pytest.mark.parametrize("tile", [24 + 70, 24 + 70 * 2, 24 + 70 * 3, 24 + 70 * 5])
def test_slab_heights_that_do_not_divide_the_block_rows(monkeypatch, slabs, tile):
    # 4 x 6 weights on 7 x 5 parts: a row of the six parts, the product and
    # the scratch takes 5 * (6 + 2 * 4) = 70 entries past the 24 weights, so
    # the slabs are 1, 2, 3 and 5 rows high, the last one shorter
    monkeypatch.setattr(field_module, "_TILE_ELEMS", tile)
    q = Q_INT64_MAX
    field = PrimeField(q)
    parts = [operands(q, 7, 5, 1, seed=s)[0] for s in range(5)] + [near_maximal(q, 7, 5, 1)[0]]
    weights = near_maximal_weights(q, 4, 6)
    want = combined_by_oracle(q, weights, parts)
    assert combine(field, weights, parts).tolist() == want
    out = [np.empty((7, 5), dtype=np.int64) for _ in range(4)]
    assert [o.tolist() for o in combine(field, weights, parts, out=out)] == want


@pytest.mark.parametrize("k", [39, 40])
def test_combine_slabs_of_weight_rows(monkeypatch, slabs, k):
    # k x 6 weights on 5 x 4 parts in a 600-entry workspace: with every
    # weight row a tile would have room for fewer than 20 entries of each
    # part, so the weights go in slabs of 10 rows, as the rows of a product's
    # a do, the last slab shorter at k = 39; each slab is written into its
    # own rows of an array out and into its own views of a list out
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 600)
    requests = []
    workspace = field_module._workspace
    monkeypatch.setattr(field_module, "_workspace", lambda n: requests.append(n) or workspace(n))
    q = Q_INT64_MAX
    field = PrimeField(q)
    parts = [operands(q, 5, 4, 1, seed=s)[0] for s in range(5)] + [near_maximal(q, 5, 4, 1)[0]]
    weights = operands(q, k, 6, 1, seed=k)[0]
    want = combined_by_oracle(q, weights, parts)
    assert combine(field, weights, parts).tolist() == want
    full = np.full((5, 4 * k), -1, dtype=np.int64)
    out = [full[:, i::k] for i in range(k)]
    assert [o.tolist() for o in combine(field, weights, parts, out=out)] == want
    assert full.min() >= 0
    assert requests and max(requests) <= 600


@pytest.mark.parametrize("shape", [(3, 50), (2, 3, 40)], ids=["block", "3-d"])
def test_combine_splits_rows_that_overflow_the_workspace(monkeypatch, slabs, shape):
    # 4 x 6 weights: each entry of a row costs 6 + 2 * 4 = 14 entries of the
    # parts, the product and the scratch, so past the 24 weights a 122-entry
    # budget holds 7 of them; a row of 50 (or 3 x 40) entries goes in pieces
    # along its last axis, each inside the workspace
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 24 + 7 * 14)
    requests = []
    workspace = field_module._workspace
    monkeypatch.setattr(field_module, "_workspace", lambda n: requests.append(n) or workspace(n))
    q = Q_INT64_MAX
    field = PrimeField(q)
    wide = np.random.default_rng(len(shape)).integers(0, q, size=(6, *shape[:-1], 2 * shape[-1]))
    wide[-1] = q - 1
    parts = list(wide[..., ::2])  # strided views
    weights = near_maximal_weights(q, 4, 6)
    want = combined_by_oracle(q, weights, parts)
    assert combine(field, weights, parts).tolist() == want
    out = [np.empty(shape, dtype=np.int64) for _ in range(4)]
    assert [o.tolist() for o in combine(field, weights, parts, out=out)] == want
    assert requests and max(requests) <= field_module._TILE_ELEMS


@pytest.mark.parametrize("terms", [256, 257, 2048, 2049])
def test_combine_near_maximal_entries_at_the_largest_int64_prime(slabs, terms):
    # at Q_INT64_MAX one float64 pass sums at most 256 products: 257 parts
    # take two chunks, the second accumulated into the first
    q = Q_INT64_MAX
    field = PrimeField(q)
    weights = near_maximal(q, 2, terms, 1)[0]
    parts = list(near_maximal(q, terms, 6, 1)[0].reshape(terms, 2, 3))
    assert combine(field, weights, parts).tolist() == combined_by_oracle(q, weights, parts)


@pytest.mark.parametrize("shape", [(), (9,)], ids=["scalar", "vector"])
def test_combine_scalar_and_vector_parts(slabs, shape):
    # the element-wise code combines scalars or vectors, the convolution
    # code vectors of length 2s - 1, as lists or stacks; vectors go in
    # slabs of entries, scalars always take the one-matmul path
    q = Q_INT64_MAX
    field = PrimeField(q)
    rng = np.random.default_rng(len(shape))
    parts = [rng.integers(0, q, size=shape) for _ in range(5)] + [np.full(shape, q - 1)]
    weights = near_maximal_weights(q, 4, len(parts))
    want = combined_by_oracle(q, weights, parts)
    assert combine(field, weights, parts).tolist() == want
    assert combine(field, weights, np.stack(parts)).tolist() == want


def traced_peak(call, hold: bool = False):
    """(result, bytes) of call(), traced after one untraced warm-up call.

    The bytes are tracemalloc's peak plus the buffers that the result pool
    maps meanwhile, which tracemalloc does not see.  The warm-up makes this
    thread's workspace and leaves the pool a buffer of each result's size
    class.  Its result is dropped before the traced call, which can then
    reuse those buffers, unless hold is set.
    """
    first = call()
    if not hold:
        del first
    pooled = {id(buf) for buf in field_module._pool}
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak + sum(len(buf) for buf in field_module._pool if id(buf) not in pooled)


def test_worker_product_allocates_only_its_result():
    # a repeated product reuses its dropped result's buffer, and one whose
    # earlier result is held takes one new buffer for its own
    q = 65537
    rng = np.random.default_rng(256)
    a, b = rng.integers(0, q, size=(2, 256, 256))
    _, peak = traced_peak(lambda: modmatmul(a.T, b, q))
    assert peak <= 64 << 10
    out, peak = traced_peak(lambda: modmatmul(a.T, b, q), hold=True)
    assert peak <= pool_class(out.nbytes) + (64 << 10)


def test_large_product_allocates_only_its_result():
    # from about 256 rows a product goes in row slabs and column tiles that
    # fit the workspace, so at 1024^2 it too takes nothing but its result
    q = 65537
    rng = np.random.default_rng(1024)
    a, b = rng.integers(0, q, size=(2, 1024, 1024))
    _, peak = traced_peak(lambda: modmatmul(a.T, b, q))
    assert peak <= 64 << 10
    out, peak = traced_peak(lambda: modmatmul(a.T, b, q), hold=True)
    assert peak <= pool_class(out.nbytes) + (64 << 10)
    # 1024 products of entries below 2^16 sum exactly in float64
    assert np.array_equal(out, (a.T.astype(np.float64) @ b.astype(np.float64)) % q)


def bulk_entangled():
    field = PrimeField(65537)
    code = EntangledCode(2, 2, 2, N=12, field=field)
    rng = np.random.default_rng(512)
    a, b = (MatrixF(field, rng.integers(0, field.modulus, size=(512, 512))) for _ in range(2))
    return code, a, b


def test_encode_allocates_only_its_coded_stacks():
    code, a, b = bulk_entangled()
    pairs, peak = traced_peak(lambda: code.encode_all(a, b))
    assert peak <= 64 << 10
    pairs, peak = traced_peak(lambda: code.encode_all(a, b), hold=True)
    assert peak <= 2 * pool_class(12 * 256 * 256 * 8) + (64 << 10)
    again = code.encode_all(a, b)
    assert pairs[5][0] == again[5][0] and pairs[5][1] == again[5][1]


def test_decode_allocates_only_the_product():
    # no stack of the K results and no copy to assemble the blocks
    code, a, b = bulk_entangled()
    results = {i: worker_multiply(ca, cb) for i, (ca, cb) in enumerate(code.encode_all(a, b))}
    subset = [0, 2, 3, 4, 5, 7, 8, 10, 11]
    got, peak = traced_peak(lambda: code.decode(results, subset, dims=(512, 512)))
    assert peak <= 512 * 512 * 8 + (64 << 10)
    want = (a.data.T.astype(np.float64) @ b.data.astype(np.float64)) % 65537
    assert np.array_equal(got.data, want.astype(np.int64))


def test_threads_use_their_own_workspace():
    # a tiled product, a slab combination of other shapes and an FFT
    # convolution, run at once in two threads, each match their
    # single-threaded results
    q = Q_INT64_MAX
    field = PrimeField(q)
    a, b = operands(q, 3, 2049, 40, seed=1)
    weights = near_maximal_weights(q, 12, 4)
    parts = list(operands(q, 4 * 96, 96, 1, seed=2)[0].reshape(4, 96, 96))
    calls = [
        lambda: modmatmul(a, b, q),
        lambda: combine(field, weights, parts),
        lambda: field_convolve(field, a[0], b[:, 0]),
    ]
    want = [call() for call in calls]
    wrong = []

    def run(order):
        try:
            for _ in range(30):
                for i in order:
                    if not np.array_equal(calls[i](), want[i]):
                        wrong.append(i)
        except Exception as exc:  # a clash can also break a shape: report it here
            wrong.append(repr(exc))

    threads = [threading.Thread(target=run, args=(order,)) for order in ([0, 1, 2], [2, 1, 0])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.fixture
def empty_pool(monkeypatch):
    """A result pool of this test's own, empty at the start."""
    monkeypatch.setattr(field_module, "_pool", [])


def in_pool(x: np.ndarray) -> bool:
    return any(np.shares_memory(x, buf) for buf in field_module._pool)


def pooled_operands(q: int, cols: int):
    """A tiled (16 x 4) @ (4 x cols) product; from 512 columns its result is pooled."""
    return operands(q, 16, 4, cols, seed=cols)


def test_pool_keeps_a_dropped_result_that_a_view_still_holds(empty_pool):
    # the view's entries survive products of the same size class
    q = 65537
    a, b = pooled_operands(q, 1000)
    c, d = operands(q, 16, 4, 1000, seed=5)
    kept = modmatmul(np.stack([a, a]), np.stack([b, b]), q)[1]  # the stack itself is dropped
    want = kept.copy()
    other = modmatmul(np.stack([c, c]), np.stack([d, d]), q)
    assert in_pool(kept) and in_pool(other) and not np.shares_memory(kept, other)
    assert np.array_equal(kept, want)
    # a coded pair's MatrixF wraps one entry of encode's coded stack
    field = PrimeField(q)
    code = EntangledCode(2, 2, 2, N=12, field=field)
    x, y, z, w = (MatrixF(field, operands(q, 128, 128, 1, seed=s)[0]) for s in range(4))
    coded = code.encode_all(x, y)[3][0]
    assert in_pool(coded.data)
    again = code.encode_all(z, w)
    assert not any(np.shares_memory(coded.data, m.data) for pair in again for m in pair)
    assert coded == code.encode_all(x, y)[3][0]


def test_pool_reuses_a_buffer_once_every_view_is_gone(empty_pool, monkeypatch):
    # the first buffer is busy while its view lives, then handed out again
    q = 65537
    a, b = pooled_operands(q, 1000)
    first = modmatmul(a, b, q)
    view, address = first[3:], first.__array_interface__["data"][0]
    del first
    assert not np.shares_memory(modmatmul(a, b, q), view)
    del view
    again = modmatmul(a, b, q)
    assert again.__array_interface__["data"][0] == address
    assert len(field_module._pool) == 2
    # small results, object results and an interpreter without reference
    # counts take fresh memory
    assert not in_pool(field_module._fresh((8191,), np.int64))
    assert not in_pool(field_module._fresh((1 << 14,), object))
    monkeypatch.setattr(field_module, "_IDLE_REFS", None)
    assert not in_pool(modmatmul(a, b, q))
    assert len(field_module._pool) == 2


def test_threads_never_share_pooled_results(empty_pool):
    # three threads take results of three size classes (128, 256 and
    # 512 KB), holding every other one: no two held results share memory,
    # and each one matches the oracle
    q = Q_INT64_MAX
    cases = [pooled_operands(q, cols) for cols in (1000, 1500, 2100)]
    want = [np.array(naive_matmul_t(q, a.T.tolist(), b.tolist())) for a, b in cases]
    held, errors = [], []

    def run(order):
        try:
            for step in range(20):
                for i in order:
                    out = modmatmul(*cases[i], q)
                    if step % 2:
                        held.append((i, out))
        except Exception as exc:  # a clash can also break a shape: report it here
            errors.append(repr(exc))

    orders = ([0, 1, 2], [2, 1, 0], [1, 2, 0])
    threads = [threading.Thread(target=run, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(held) == 90
    assert all(in_pool(out) and np.array_equal(out, want[i]) for i, out in held)
    outs = [out for _, out in held]
    assert not any(np.shares_memory(x, y) for j, x in enumerate(outs) for y in outs[j + 1:])


def test_pool_stays_under_its_cap(empty_pool, monkeypatch):
    # in a 512 KB pool two held 256 KB buffers leave no room: the next
    # result is fresh memory, until one is dropped and its idle buffer goes
    # to make room for a new one
    cap = 512 << 10
    monkeypatch.setattr(field_module, "_POOL_CAP_BYTES", cap)
    q = 65537
    cases = {cols: pooled_operands(q, cols) for cols in (1000, 1500)}  # 128 and 256 KB classes
    want = {cols: naive_matmul_t(q, a.T.tolist(), b.tolist()) for cols, (a, b) in cases.items()}

    def product(cols: int) -> np.ndarray:
        out = modmatmul(*cases[cols], q)
        assert out.tolist() == want[cols]
        assert sum(len(buf) for buf in field_module._pool) <= cap
        return out

    x, y = product(1500), product(1500)
    assert in_pool(x) and in_pool(y)
    assert not in_pool(product(1000))
    del x
    z = product(1000)
    assert in_pool(z) and len(field_module._pool) == 2
    held = [product(cols) for cols in (1000, 1500, 1000)]
    assert [in_pool(h) for h in held] == [True, False, False]


# Large fields.  Products over 2^21 <= q < 2^63 run on 21-bit limbs:
# products of the limbs' Toeplitz stack on float64 BLAS, exact in chunks of
# exact_limb_terms(q) terms, reduced by one more float64 product with a
# table of powers of 2 mod q and a quotient estimate that is never too
# large.  Every case here is checked against the Python-int oracle, from
# both ends of that range, on every operand layout and at the chunk bound.

# the first prime above 2^21, 2^31 - 1, 2^61 - 1, and the largest primes
# below 2^62 and 2^63
LIMB_MODULI = (2097169, (1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57, (1 << 63) - 25)


@pytest.mark.parametrize("signs", ["any", "non-negative"])
@pytest.mark.parametrize("dtype", [object, np.int64])
@pytest.mark.parametrize("shape", [(2, 3, 2), (8, 8, 8), (4, 30, 20)])
def test_any_integer_representatives_reduce_as_python_ints(signs, dtype, shape):
    # negative entries, entries of q or more and (as Python ints) of 2^63 and
    # 2^64 or more multiply to (a @ b) % q on Python ints, in modmatmul and in
    # combine, whichever path the product takes
    q = (1 << 61) - 1
    rows, inner, cols = shape
    gen = random.Random(sum(shape))
    pool = [q, q + 5, 2 * q + 1, (1 << 63) - 1]
    if dtype is object:
        pool += [1 << 63, (1 << 64) - 1]
    if signs == "any":
        pool += [-1, -q, -(q + 3), -(1 << 63)] + ([1 << 64, 1 << 100, -(1 << 100)] if dtype is object else [])
    draw = lambda n: [gen.choice(pool) if gen.random() < 0.5 else gen.randrange(q) for _ in range(n)]
    a = np.array(draw(rows * inner), dtype=dtype).reshape(rows, inner)
    b = np.array(draw(inner * cols), dtype=dtype).reshape(inner, cols)
    want = naive_matmul_t(q, a.T.tolist(), b.tolist())
    got = modmatmul(a, b, q)
    assert got.dtype == dtype and got.tolist() == want
    if dtype is object:
        assert all(type(x) is int for x in got.flat)
        assert combine(PrimeField(q), a, list(b)).tolist() == want


@pytest.fixture
def limb_calls(monkeypatch):
    """The shapes of the operand vectors that went to the limb path's range check and split, one per product.

    The int64 matmul is switched off, so that small int64 products over the
    moduli below about 2^31.5, where it is exact, reach the limbs too.
    """
    monkeypatch.setattr(field_module, "_INT64_MUL_ADDS", 0)
    calls = []
    limbs = field_module._limbs
    monkeypatch.setattr(field_module, "_limbs", lambda x, q: calls.append(x.shape) or limbs(x, q))
    return calls


def check_large(q: int, a: np.ndarray, b: np.ndarray):
    """check() over a large field: int64 operands (q < 2^62) give int64, object operands Python ints."""
    got = modmatmul(a, b, q)
    assert got.dtype == a.dtype
    assert a.dtype == np.int64 or all(type(x) is int for x in got.flat)
    assert got.tolist() == naive_matmul_t(q, a.T.tolist(), b.tolist())


@pytest.mark.parametrize("q", LIMB_MODULI)
@pytest.mark.parametrize("shape", [(8, 8, 8), (9, 4, 64), (2, 5, 64), (9, 64, 8), (1, 300, 70), (33, 17, 29)])
def test_limb_products_match_oracle(q, shape, limb_calls):
    check_large(q, *operands(q, *shape, seed=sum(shape)))
    check_large(q, *near_maximal(q, *shape))
    assert len(limb_calls) == 2


def test_limb_chunk_length_at_2_pow_61_minus_1():
    # 2^53 // (2 (2^21 - 1)^2): the d = 1 diagonal of the entry 2^42 - 1
    assert exact_limb_terms((1 << 61) - 1) == 1024
    assert exact_limb_terms((1 << 63) - 25) == 682
    assert exact_limb_terms(2097169) == 2048


@pytest.mark.parametrize("past", [-1, 0, 1, 2])
def test_limb_contraction_at_and_past_one_chunk(past, limb_calls):
    # entries 2^42 - 1, of limbs (2^21 - 1, 2^21 - 1, 0), give the d = 1
    # diagonal its largest sum, 2 (2^21 - 1)^2 per term, and one entry
    # 2^42 - 2 per row makes it odd: a chunk one term longer than
    # exact_limb_terms passes 2^53, where float64 rounds an odd sum
    q = (1 << 61) - 1
    inner = exact_limb_terms(q) + past
    a = np.full((8, inner), (1 << 42) - 1, dtype=object)
    a[:, 0] = (1 << 42) - 2
    b = np.full((inner, 8), (1 << 42) - 1, dtype=object)
    check_large(q, a, b)
    assert limb_calls


@pytest.mark.parametrize("q", LIMB_MODULI)
@pytest.mark.parametrize("inner", [2047, 2048, 2049])
def test_limb_contraction_lengths(q, inner):
    check_large(q, *near_maximal(q, 8, inner, 8))


@pytest.mark.parametrize("q", LIMB_MODULI)
def test_limb_layouts(q, limb_calls):
    # stacked operands, a shared operand, transposed and strided views, and
    # an a larger than b, whose product runs transposed
    check_stacked(q, distinct_operands(q, 8, 5, 8))
    for a, b in shared_and_stacked(q, 8, 4, 8):
        got = modmatmul(a, b, q)
        for out, x, y in zip(got, np.broadcast_to(a, (5, 8, 4)), np.broadcast_to(b, (5, 4, 8))):
            assert out.tolist() == naive_matmul_t(q, x.T.tolist(), y.tolist())
    a, b = near_maximal(q, 24, 9, 30)
    at, bt = np.array(a.T, order="C"), np.array(b.T, order="C")
    check_large(q, at.T, bt.T)
    check_large(q, a[::2, ::3], b[::3, 1::2])
    check_large(q, *operands(q, 20, 30, 4, seed=4))
    assert len(limb_calls) == 7


def test_limb_products_in_row_slabs(monkeypatch, limb_calls):
    # a 40-entry budget takes one row of a at a time
    monkeypatch.setattr(field_module, "_TILE_ELEMS", 40)
    q = (1 << 61) - 1
    check_stacked(q, distinct_operands(q, 8, 5, 8))
    check_large(q, *near_maximal(q, 8, 2049, 8))
    assert len(limb_calls) == 2


@pytest.mark.parametrize("shape, limbs", [
    ((8, 8, 8), True), ((4, 8, 8), True), ((8, 7, 4), False), ((5, 10, 6), True), ((8, 1, 32), True),
    ((8, 1, 31), False), ((9, 64, 1), True), ((1, 256, 1), True), ((1, 255, 1), False),
])
def test_limb_path_threshold(shape, limbs, limb_calls):
    # products of at least _LIMB_MIN_MUL_ADDS multiply-adds take the limbs,
    # however few their result entries; smaller ones stay Python ints
    q = (1 << 61) - 1
    check_large(q, *operands(q, *shape, seed=1))
    assert bool(limb_calls) == limbs


@pytest.mark.parametrize("shapes", [
    ((0, 5), (5, 64)), ((64, 0), (0, 64)), ((2, 8, 0), (2, 0, 8)), ((3, 9, 4), (4, 0)), ((0, 8, 4), (0, 4, 8)),
])
def test_empty_large_field_products(shapes):
    # empty results and empty contractions hold Python-int zeros
    q = (1 << 61) - 1
    a, b = (np.zeros(shape, dtype=object) for shape in shapes)
    got = modmatmul(a, b, q)
    assert got.dtype == object and got.shape == (a @ b).shape
    assert not got.any() and all(type(x) is int for x in got.flat)
    a64, b64 = (np.zeros(shape, dtype=np.int64) for shape in shapes)
    assert modmatmul(a64, b64, q).tolist() == got.tolist()


def test_moduli_past_2_pow_63_multiply_as_python_ints(limb_calls):
    q = (1 << 89) - 1
    gen = random.Random(89)
    a, b = (np.array([[gen.randrange(q) for _ in range(cols)] for _ in range(rows)], dtype=object)
            for rows, cols in ((16, 8), (16, 8)))
    a[0, 0] = b[0, 0] = q - 1
    check_large(q, a.T, b)
    assert not limb_calls


def off_canonical(q: int, x: np.ndarray, seed: int) -> np.ndarray:
    """x as int64 with about a third of its entries moved off [0, q): negative, q or more, int64's extremes."""
    rng = np.random.default_rng(seed)
    pool = [-1, -q, -(q + 3), -(1 << 63), q, q + 5, (1 << 63) - 1] + [2 * q + 1] * (2 * q + 1 < 1 << 63)
    out = x.astype(np.int64)
    moved = rng.random(x.shape) < 1 / 3
    out[moved] = rng.choice(np.array(pool, dtype=np.int64), size=int(moved.sum()))
    return out


@pytest.mark.parametrize("q", LIMB_MODULI)
@pytest.mark.parametrize("layout", ["stacked", "a shared", "b shared", "transposed", "sliced", "a larger"])
@pytest.mark.parametrize("split", ["one chunk", "row slabs", "chunks"])
def test_int64_operands_on_limbs(monkeypatch, limb_calls, q, layout, split):
    # int64 operands over a large field, in every layout, with negative and
    # >= q entries, in one slab and chunk, in slabs of one row (a small
    # budget) and past one chunk of exact_limb_terms(q) terms, come back
    # int64 and equal (a @ b) % q on Python ints
    if split == "row slabs":
        monkeypatch.setattr(field_module, "_TILE_ELEMS", 400)
    inner = exact_limb_terms(q) + 3 if split == "chunks" else 9
    rows, cols = (40, 2) if layout == "a larger" else (8, 8)
    pairs = [near_maximal(q, rows, inner, cols)] + [operands(q, rows, inner, cols, seed=s) for s in range(2)]
    a = np.stack([off_canonical(q, x, seed=2 * s) for s, (x, _) in enumerate(pairs)])
    b = np.stack([off_canonical(q, y, seed=2 * s + 1) for s, (_, y) in enumerate(pairs)])
    if layout == "a shared":
        a = a[1]
    elif layout == "b shared":
        b = b[1]
    elif layout == "transposed":  # Fortran-order views of the last pair
        a, b = np.array(a[2].T, order="C").T, np.array(b[2].T, order="C").T
    elif layout == "sliced":  # strided views into larger arrays
        wide_a = np.zeros((2 * rows, 3 * inner), dtype=np.int64)
        wide_b = np.zeros((3 * inner, 2 * cols), dtype=np.int64)
        wide_a[::2, 1::3], wide_b[::3, 1::2] = a[0], b[0]
        a, b = wide_a[::2, 1::3], wide_b[::3, 1::2]
    elif layout == "a larger":  # runs as (b^T a^T)^T
        a, b = a[0], b[0]
    got = modmatmul(a, b, q)
    assert got.dtype == np.int64 and limb_calls
    pairs = zip(np.broadcast_to(a, (*got.shape[:-2], rows, inner)).reshape(-1, rows, inner),
                np.broadcast_to(b, (*got.shape[:-2], inner, cols)).reshape(-1, inner, cols))
    want = [naive_matmul_t(q, x.T.tolist(), y.tolist()) for x, y in pairs]
    assert got.reshape(-1, rows, cols).tolist() == want


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1, (1 << 62) - 57])
@pytest.mark.parametrize("size", [3, 255, 256, 600])
def test_mulmod_of_minus_one(q, size):
    # -1 times 1 is q - 1 on every branch of mulmod, below and past
    # _LIMB_MIN_MUL_ADDS entries: the limbs once dropped the bit 63 of the
    # int64 -1 and read 3 at 2^61 - 1
    assert mulmod(np.full(size, -1), np.ones(size, dtype=np.int64), q).tolist() == [q - 1] * size


@pytest.mark.parametrize("q", [(1 << 61) - 1, (1 << 62) - 57])
@pytest.mark.parametrize("shapes", [((3,), (3,)), ((255,), (255,)), ((256,), (256,)), ((600,), (600,)),
                                    ((27, 1), (67,)), ((), (600,)), ((2, 1, 300), (1, 4, 1))])
def test_mulmod_of_any_int64_representatives(q, shapes):
    # where (q - 1)^2 passes 2^63, so that no int64 multiply is exact,
    # mulmod is a * b % q on Python ints, broadcast, for int64 entries of
    # any sign and size, on both sides of _LIMB_MIN_MUL_ADDS result entries
    a, b = (off_canonical(q, np.random.default_rng(s).integers(0, q, size=shape), seed=s)
            for s, shape in enumerate(shapes))
    got = mulmod(a, b, q)
    want = [x * y % q for x, y in zip(*(np.broadcast_to(v, got.shape).ravel().tolist() for v in (a, b)))]
    assert got.dtype == np.int64 and got.shape == np.broadcast_shapes(*shapes)
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("q", [(1 << 31) - 1, (1 << 47) - 115])
def test_limb_reduction_near_multiples_of_q(q):
    # diagonal sums whose reduced value x lies at kq - 1, kq or kq + 1: a
    # quotient estimate rounded up past floor(x / q) would leave a negative
    # remainder.  D_1..D_4 are drawn up to 2^53, the most a chunk leaves,
    # and D_0, which adds itself to x as q > 2^27, is the residue that puts
    # x there, plus a multiple of q
    rng = np.random.default_rng(q % 1000)
    n = 3000
    diagonals = rng.integers(0, (1 << 53) + 1, size=(5, 1, n), dtype=np.int64)
    weights = [[pow(2, 21 * d + 27 * j, q) for j in range(2)] for d in range(5)]
    want = []
    for i in range(n):
        rest = sum(w * (int(diagonals[d, 0, i]) >> 27 * j & (1 << 27) - 1)
                   for d in range(1, 5) for j, w in enumerate(weights[d]))
        target = (i % 3 - 1) % q
        diagonals[0, 0, i] = (target - rest) % q + q * int(rng.integers(0, (1 << 53) // q))
        want.append(target)
    got = field_module._limb_reduce(diagonals.astype(np.float64), q)
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("q", LIMB_MODULI)
def test_limb_reduction_of_every_diagonal(q):
    # random diagonal sums up to 2^53, their top values included
    rng = np.random.default_rng(q % 1000)
    diagonals = rng.integers(0, (1 << 53) + 1, size=(5, 7, 9), dtype=np.int64)
    diagonals[:, 0] = 1 << 53
    diagonals[:, 1] = (1 << 53) - 1
    want = [[sum(int(diagonals[d, i, j]) << 21 * d for d in range(5)) % q for j in range(9)] for i in range(7)]
    assert field_module._limb_reduce(diagonals.astype(np.float64), q).tolist() == want
