"""Matrices over GF(q), block partitioning, and reassembly.

Inputs are split into a p-by-m (or p-by-n) grid of equally sized submatrices,
zero-padding whenever the dimensions do not divide evenly; the padding is
remembered so decoded outputs can be truncated back to the true shape.
Also hosts the overlap-add reassembly for block convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlockShapeMismatch, FieldMismatch
from .field import FieldElement, PrimeField, modmatmul


class MatrixF:
    """Dense matrix with entries in GF(q), stored as canonical ints."""

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data):
        arr = np.array(data, dtype=field.array_dtype)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr % field.modulus)

    @classmethod
    def _wrap(cls, field: PrimeField, data: np.ndarray) -> "MatrixF":
        """Adopt an already canonical 2-D array of the field's dtype, uncopied."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "data", data)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("MatrixF is immutable")

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixF":
        return cls(field, np.zeros((rows, cols), dtype=field.array_dtype))

    @classmethod
    def random(cls, field: PrimeField, rows: int, cols: int, rng) -> "MatrixF":
        vals = [[field.random(rng) for _ in range(cols)] for _ in range(rows)]
        return cls(field, vals)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def _check(self, other: "MatrixF"):
        if not isinstance(other, MatrixF):
            raise TypeError(f"expected MatrixF, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "MatrixF") -> "MatrixF":
        self._check(other)
        if other.shape != self.shape:
            raise BlockShapeMismatch(f"{self.shape} + {other.shape}")
        return MatrixF._wrap(self.field, (self.data + other.data) % self.field.modulus)

    def __sub__(self, other: "MatrixF") -> "MatrixF":
        self._check(other)
        if other.shape != self.shape:
            raise BlockShapeMismatch(f"{self.shape} - {other.shape}")
        return MatrixF._wrap(self.field, (self.data - other.data) % self.field.modulus)

    def __matmul__(self, other: "MatrixF") -> "MatrixF":
        self._check(other)
        if self.cols != other.rows:
            raise BlockShapeMismatch(f"{self.shape} @ {other.shape}")
        return MatrixF._wrap(self.field, modmatmul(self.data, other.data, self.field.modulus))

    def scale(self, k: int) -> "MatrixF":
        return MatrixF(self.field, self.data * (k % self.field.modulus))

    def transpose(self) -> "MatrixF":
        return MatrixF._wrap(self.field, self.data.T)

    def entry(self, r: int, c: int) -> FieldElement:
        return FieldElement(self.field, int(self.data[r, c]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixF)
            and other.field == self.field
            and other.shape == self.shape
            and bool(np.array_equal(other.data, self.data))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatrixF(GF({self.field.modulus}), {self.data.tolist()})"


@dataclass(frozen=True)
class BlockGrid:
    """A row_parts x col_parts grid of equal-shape blocks of one matrix.

    original_shape keeps the pre-padding dimensions so a later reassembly can
    truncate exactly.
    """

    blocks: tuple[tuple[MatrixF, ...], ...]
    row_parts: int
    col_parts: int
    block_shape: tuple[int, int]
    original_shape: tuple[int, int]

    def __getitem__(self, jk: tuple[int, int]) -> MatrixF:
        j, k = jk
        return self.blocks[j][k]

    @property
    def field(self) -> PrimeField:
        return self.blocks[0][0].field


def padded_blocks(matrix: MatrixF, row_parts: int, col_parts: int) -> np.ndarray:
    """The zero-padded blocks as one (row_parts, col_parts, br, bc) array view."""
    if row_parts < 1 or col_parts < 1:
        raise ValueError("partition counts must be >= 1")
    s, r = matrix.shape
    br = -(-s // row_parts)
    bc = -(-r // col_parts)
    padded = np.zeros((br * row_parts, bc * col_parts), dtype=matrix.field.array_dtype)
    padded[:s, :r] = matrix.data
    return padded.reshape(row_parts, br, col_parts, bc).swapaxes(1, 2)


def partition(matrix: MatrixF, row_parts: int, col_parts: int) -> BlockGrid:
    """Split into row_parts x col_parts equal blocks, zero-padding as needed."""
    view = padded_blocks(matrix, row_parts, col_parts)
    rows = tuple(
        tuple(MatrixF._wrap(matrix.field, blk) for blk in row) for row in view
    )
    return BlockGrid(rows, row_parts, col_parts, view.shape[2:], matrix.shape)


def combine_blocks(field: PrimeField, weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(len(weights), br, bc) array whose [i] is sum_t weights[i, t] * blocks[t].

    blocks is a (..., br, bc) stack of T canonical blocks, such as the view
    from padded_blocks, so every combination comes from one modmatmul.
    """
    br, bc = blocks.shape[-2:]
    coded = modmatmul(weights, blocks.reshape(-1, br * bc), field.modulus)
    return coded.reshape(len(weights), br, bc)


def assemble_array(blocks: np.ndarray, true_dims: tuple[int, int] | None = None) -> np.ndarray:
    """The matrix of an (m, n, br, bc) block array, cut to true_dims.

    With true_dims None the padded (m*br, n*bc) matrix is returned.
    """
    m, n, br, bc = blocks.shape
    full = blocks.swapaxes(1, 2).reshape(m * br, n * bc)
    if true_dims is None:
        return full
    r, t = true_dims
    if r > full.shape[0] or t > full.shape[1]:
        raise BlockShapeMismatch(
            f"true dims {true_dims} exceed assembled shape {full.shape}"
        )
    return full[:r, :t]


def assemble(blocks: Sequence[Sequence[MatrixF]]) -> MatrixF:
    """Concatenate a grid of equal-shape blocks into one matrix."""
    return assemble_product(blocks, None)


def assemble_product(
    blocks: Sequence[Sequence[MatrixF]], true_dims: tuple[int, int] | None
) -> MatrixF:
    """Assemble the m x n grid of product blocks and strip the padding.

    With true_dims None the padded product is returned.
    """
    first = blocks[0][0]
    for i, row in enumerate(blocks):
        if len(row) != len(blocks[0]):
            raise ValueError(f"grid row {i} has {len(row)} blocks, row 0 has {len(blocks[0])}")
        for blk in row:
            if blk.shape != first.shape:
                raise BlockShapeMismatch(f"{blk.shape} vs {first.shape}")
            if blk.field != first.field:
                raise FieldMismatch("blocks over different fields")
    data = np.stack([np.stack([blk.data for blk in row]) for row in blocks])
    return MatrixF._wrap(first.field, assemble_array(data, true_dims))


def partition_vector(field: PrimeField, vec, parts: int, block_len: int | None = None) -> list[np.ndarray]:
    """Split a vector into `parts` equal-length pieces, zero-padding the tail.

    block_len forces the piece length (it must cover ceil(len/parts)); by
    default the smallest length that fits is used.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    v = np.array(vec, dtype=field.array_dtype) % field.modulus
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    piece = -(-len(v) // parts)
    if block_len is not None:
        if block_len < piece:
            raise BlockShapeMismatch(
                f"block_len {block_len} cannot hold {len(v)} entries in {parts} pieces"
            )
        piece = block_len
    padded = np.zeros(piece * parts, dtype=field.array_dtype)
    padded[: len(v)] = v
    return [padded[i * piece:(i + 1) * piece] for i in range(parts)]


def overlap_add(field: PrimeField, block_convs: Sequence[np.ndarray], block_len: int) -> np.ndarray:
    """Reassemble a full convolution from its per-diagonal block convolutions.

    block_convs[d] must be the length 2s-1 convolution sum over all block
    pairs (j, k) with j + k = d; block d lands at offset d*s.
    """
    s = block_len
    expect = 2 * s - 1
    for blk in block_convs:
        if len(blk) != expect:
            raise BlockShapeMismatch(f"block of length {len(blk)}, expected {expect}")
    out = np.zeros(len(block_convs) * s + (s - 1), dtype=field.array_dtype)
    for d, blk in enumerate(block_convs):
        out[d * s: d * s + expect] += np.asarray(blk)
    return out % field.modulus


# -- text fixtures: first line "rows cols q", then row-major entries --

def write_matrix_text(matrix: MatrixF) -> str:
    header = f"{matrix.rows} {matrix.cols} {matrix.field.modulus}"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in matrix.data)
    return header + "\n" + body + "\n"


def read_matrix_text(text: str) -> MatrixF:
    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("matrix text needs a 'rows cols q' header")
    rows, cols, q = int(tokens[0]), int(tokens[1]), int(tokens[2])
    entries = [int(t) for t in tokens[3:]]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    field = PrimeField(q)
    data = np.array(entries, dtype=field.array_dtype).reshape(rows, cols)
    return MatrixF(field, data)
