"""Independent brute-force references the coded pipelines are checked against.

Everything here is plain Python ints and triple loops on purpose: no numpy,
no package internals, so a bug in the library's fast paths cannot leak into
the expected values.
"""

from itertools import combinations

from codedmm.blocks import MatrixF
from codedmm.field import PrimeField


def naive_matmul_t(q: int, a_rows, b_rows):
    """C = A^T B mod q via triple loop; inputs/outputs are lists of lists."""
    s = len(a_rows)
    r = len(a_rows[0])
    t = len(b_rows[0])
    assert len(b_rows) == s
    out = [[0] * t for _ in range(r)]
    for i in range(r):
        for j in range(t):
            acc = 0
            for k in range(s):
                acc += a_rows[k][i] * b_rows[k][j]
            out[i][j] = acc % q
    return out


def oracle_product(a: MatrixF, b: MatrixF) -> MatrixF:
    """naive_matmul_t wrapped for MatrixF operands."""
    assert a.field == b.field
    rows = naive_matmul_t(a.field.modulus, a.data.tolist(), b.data.tolist())
    return MatrixF(a.field, rows)


def block_grid(matrix: MatrixF, row_parts: int, col_parts: int) -> list[list[MatrixF]]:
    """matrix zero-padded and cut into row_parts x col_parts equal blocks, grid[j][k]."""
    rows, cols = matrix.shape
    br, bc = -(-rows // row_parts), -(-cols // col_parts)
    data = matrix.data.tolist()

    def entry(r, c):
        return data[r][c] if r < rows and c < cols else 0

    return [
        [
            MatrixF(matrix.field, [[entry(j * br + r, k * bc + c) for c in range(bc)] for r in range(br)])
            for k in range(col_parts)
        ]
        for j in range(row_parts)
    ]


def direct_convolution(q: int, a, b):
    """Full linear convolution mod q, O(len(a) * len(b))."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def elementwise_product(q: int, a, b):
    return [x * y % q for x, y in zip(a, b, strict=True)]


def random_matrix(field: PrimeField, rows: int, cols: int, rng) -> MatrixF:
    return MatrixF(
        field,
        [[rng.randrange(field.modulus) for _ in range(cols)] for _ in range(rows)],
    )


def rank_mod(q: int, rows) -> int:
    """Rank over GF(q) of a list-of-lists matrix, by Gaussian elimination on ints."""
    m = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], q - 2, q)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv % q
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def vandermonde_inverse(q: int, xs):
    """V^-1 mod q for V[i][d] = xs[i]^d at points distinct mod q, by Gauss-Jordan on [V | I].

    Row d of the result holds the degree-d coefficients of the Lagrange
    basis polynomials, one column per point.
    """
    k = len(xs)
    aug = [[pow(x, d, q) for d in range(k)] + [int(i == j) for j in range(k)] for i, x in enumerate(xs)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if aug[r][c] % q)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], q - 2, q)
        aug[c] = [v * inv % q for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] % q:
                f = aug[r][c]
                aug[r] = [(v - f * w) % q for v, w in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def nearest_codeword_errors(q: int, xs, ys, k: int):
    """Where ys differs from the unique degree < k codeword within floor((n-k)/2).

    Brute force: the polynomial through every k-subset of the points,
    evaluated at every point in Lagrange form.  A codeword that close agrees
    with ys on at least k points, so some subset finds it, and no other
    codeword is that close.  Returns the sorted mismatch positions, or None
    when no codeword lies within the radius.
    """
    n = len(xs)
    for subset in combinations(range(n), k):
        wrong = []
        for i, x in enumerate(xs):
            value = 0
            for a in subset:
                num, den = 1, 1
                for b in subset:
                    if b != a:
                        num = num * (x - xs[b]) % q
                        den = den * (xs[a] - xs[b]) % q
                value += ys[a] * num * pow(den, -1, q)
            if (value - ys[i]) % q:
                wrong.append(i)
        if k + 2 * len(wrong) <= n:
            return wrong
    return None
