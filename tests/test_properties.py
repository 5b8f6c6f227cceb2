"""Property-based differential tests against the brute-force oracles.

hypothesis draws the parameters; every example is checked against
tests/oracles.py, which shares no code with the library's fast paths.
Runs are derandomized and keep no example database, so tier-1 sees the
same examples on every machine.
"""

import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from codedmm.bilinear import (
    ElementwiseProductCode,
    ImprovedBilinearCode,
    standard_construction,
    strassen_construction,
)
from codedmm.blocks import MatrixF
from codedmm.convolution import ConvCodeSpec, conv_spec, field_convolve
from codedmm.errors import SingularDecodeSystem, TooManyErrors
from codedmm.field import (
    PrimeField,
    _cached_basis,
    _cached_lagrange_matrix,
    combine,
    exact_float_terms,
    modmatmul,
)
from codedmm.robust import Clean, _seeded_pilots, correct_errors, detect_errors
from codedmm.schemes import (
    CodingScheme,
    EntangledCode,
    GeneralPolynomialCode,
    PolynomialCodeSpec,
    RandomLinearCode,
    UncodedRepetitionCode,
    worker_multiply,
)

from oracles import direct_convolution, elementwise_product, naive_matmul_t

# both ends of the int64 path (q < 2^21), a mid-size prime and an object field
CONV_FIELDS = [2, 3, 257, 65537, 2097143, (1 << 61) - 1]


@pytest.mark.parametrize("q", CONV_FIELDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(
    la=st.integers(1, 600),
    lb=st.integers(1, 600),
    top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_convolve_equals_direct_convolution(q, la, lb, top, seed):
    # entries are drawn from the seed rather than by hypothesis, which keeps
    # 600-entry operands inside its example buffer; top picks q-1 and q-2
    gen = random.Random(seed)
    draw = (lambda: q - 1 - gen.randrange(2)) if top else (lambda: gen.randrange(q))
    a = [draw() for _ in range(la)]
    b = [draw() for _ in range(lb)]
    assert field_convolve(PrimeField(q), a, b).tolist() == direct_convolution(q, a, b)


def general_poly(field, gen):
    # (alpha, beta, theta) = (m, 1, (2p - 1)m) separates every output degree, at random points
    p, m, n = gen.randint(1, 2), gen.randint(1, 2), gen.randint(1, 2)
    k = (2 * p - 1) * m * n
    N = k + gen.randrange(3)
    return GeneralPolynomialCode(PolynomialCodeSpec(
        p=p, m=m, n=n, N=N, alpha=m, beta=1, theta=(2 * p - 1) * m,
        x_points=tuple(gen.sample(range(field.modulus), N)), field=field,
    ))


# name -> the code, from its field and a random.Random
SEVEN_CODES = {
    "entangled": lambda f, g: EntangledCode(
        g.randint(1, 2), g.randint(1, 2), g.randint(1, 2), 9 + g.randrange(3), f),
    "general-poly": general_poly,
    "improved": lambda f, g: ImprovedBilinearCode(
        strassen_construction() if g.randrange(2) else standard_construction(2, 1, 2),
        13 + g.randrange(3), f),
    "uncoded": lambda f, g: UncodedRepetitionCode(g.randint(1, 2), 2, 1, 4 + g.randrange(5), f),
    "random-linear": lambda f, g: RandomLinearCode(
        2, 1, g.randint(1, 2), 8 + g.randrange(3), f, seed=g.randrange(99)),
    # N from R to past 2R - 1: below it the first R workers are read directly
    "elementwise": lambda f, g: ElementwiseProductCode(3, 3 + g.randrange(4), f),
    "convolution": lambda f, g: conv_spec(
        g.randint(1, 3), g.randint(1, 2), 4 + g.randrange(3), g.randint(1, 4), f),
}


def inputs_and_oracle(code, gen, q):
    """Uneven inputs a, b for code, the dims that cut its product, and the oracle's product."""
    if isinstance(code, ElementwiseProductCode):
        # R equal blocks per vector; the products are entry-wise
        h, w = gen.randint(1, 3), gen.randint(1, 3)
        a, b = ([[[gen.randrange(q) for _ in range(w)] for _ in range(h)] for _ in range(code.length)]
                for _ in range(2))
        flat = lambda v: [x for blk in v for row in blk for x in row]
        return a, b, None, elementwise_product(q, flat(a), flat(b))
    if isinstance(code, ConvCodeSpec):
        # lengths short of the padded m*s and n*s
        la, lb = gen.randint(1, code.m * code.s), gen.randint(1, code.n * code.s)
        a, b = [gen.randrange(q) for _ in range(la)], [gen.randrange(q) for _ in range(lb)]
        return a, b, (la, lb), direct_convolution(q, a, b)
    # A (s x r) and B (s x t) need not split evenly into blocks
    s, r, t = (gen.randint(1, 5) for _ in range(3))
    a = [[gen.randrange(q) for _ in range(r)] for _ in range(s)]
    b = [[gen.randrange(q) for _ in range(t)] for _ in range(s)]
    return MatrixF(code.field, a), MatrixF(code.field, b), (r, t), naive_matmul_t(q, a, b)


@pytest.mark.parametrize("q", [257, 65537, (1 << 61) - 1])
@pytest.mark.parametrize("name", sorted(SEVEN_CODES))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_code_decodes_any_k_subset_to_the_oracle(name, q, seed):
    gen = random.Random(seed)
    code = SEVEN_CODES[name](PrimeField(q), gen)
    assert isinstance(code, CodingScheme)
    a, b, dims, want = inputs_and_oracle(code, gen, q)
    stack = code.worker_products(a, b)
    assert len(stack) == code.N
    subset = gen.sample(range(code.N), code.recovery_threshold())  # in any order
    results = {w: stack[w] for w in subset}
    try:
        got = code.decode_received(stack[subset], subset, dims)
    except SingularDecodeSystem:
        # a random draw may be singular on this subset: reported, never decoded wrongly
        assert name == "random-linear"
        with pytest.raises(SingularDecodeSystem):
            code.decode(results, subset, dims)
        return
    assert np.asarray(got).ravel().tolist() == np.ravel(want).tolist()
    assert np.array_equal(code.decode(results, subset, dims), got)



# the int64 kernel's moduli: both ends of the path, and a small and a mid-size prime
KERNEL_FIELDS = [2, 3, 257, 65537, 2097143]


# a failing example is reported as drawn: each shrink step would rebuild the
# oracle's Python-list operands, up to 262143 terms, and take minutes in all
@pytest.mark.parametrize("q", KERNEL_FIELDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=5,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    past=st.integers(-1, 1),
    stack=st.sampled_from(["none", "both", "a shared", "b shared"]),
    views=st.booleans(),
    top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_equals_the_oracles(q, rows, cols, past, stack, views, top, seed):
    # modmatmul and combine on contractions one short of, at and one past
    # exact_float_terms(q) where the oracle can reach it (q = 65537 and
    # 2097143), else long enough for the kernel's tiles; top draws the
    # near-maximal entries q - 1 and q - 2
    rng = np.random.default_rng(seed)
    low = q - 2 if top else 0
    draw = lambda *shape: rng.integers(low, q, size=shape)
    step = exact_float_terms(q)
    inner = (step if step <= 1 << 18 else 6000) + past
    if inner > 10000:  # the oracle's time grows with the output times the contraction
        rows, cols, stack = 1, 1, "none"
    entries = 1 if stack == "none" else 3
    a, b = draw(entries, rows, inner), draw(entries, inner, cols)
    if stack != "both":  # one operand is a single matrix
        a = a[0] if stack != "b shared" else a
        b = b[0] if stack != "a shared" else b
    got = modmatmul(a, b, q).reshape(-1, rows, cols)
    pairs = zip(np.broadcast_to(a, (len(got), rows, inner)), np.broadcast_to(b, (len(got), inner, cols)))
    assert got.tolist() == [naive_matmul_t(q, x.T.tolist(), y.tolist()) for x, y in pairs]
    # k x t weights on t parts, t across the chunk boundary at 2097143, with
    # parts large enough for combine's slabs; views are strided parts
    t = (step if step <= 1 << 9 else 30) + past
    k = rows + cols
    width = -(-40000 // ((t + 2 * k) * rows))
    weights = draw(k, t)
    parts = draw(t, rows, 2 * width)[..., ::2] if views else draw(t, rows, width)
    want = naive_matmul_t(q, weights.T.tolist(), parts.reshape(t, -1).tolist())
    got = combine(PrimeField(q), weights, list(parts) if views else parts)
    assert got.reshape(k, -1).tolist() == want


# (name, N): K = 5 for the entangled code, K = 13 for strassen's improved
# code, whose N = 13 leaves no redundancy and N = 19 corrects 3 errors
REPAIR_CODES = [("entangled", n) for n in range(7, 12)] + [("improved", n) for n in (13, 15, 17, 19)]


def repair_outcome(code, corrupted, dims):
    """(detection's verdict, correction's product or None for a refusal), as plain lists."""
    verdict = detect_errors(code, corrupted, dims=dims)
    detected = verdict.matrix.data.tolist() if isinstance(verdict, Clean) else verdict.worker
    try:
        fixed = correct_errors(code, corrupted, dims=dims).data.tolist()
    except TooManyErrors:
        fixed = None
    return detected, fixed


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    code_n=st.sampled_from(REPAIR_CODES),
    excess=st.integers(0, 8),
    whole_block=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_never_returns_a_wrong_product(q, code_n, excess, whole_block, seed):
    # corrupt `errors` workers, each by a random nonzero block or in one
    # entry.  Within floor((N - K)/2) correction returns the oracle; within
    # N - K detection never passes a wrong product and correction past its
    # budget returns the oracle or refuses.  Past N - K the corrupted
    # results may lie on another codeword (always, when N = K), so only
    # determinism is checked there: each example runs with the repair
    # caches cleared and again with them warm, to the same outcome.
    name, n = code_n
    field = PrimeField(q)
    code = (EntangledCode(2, 2, 1, n, field) if name == "entangled"
            else ImprovedBilinearCode(strassen_construction(), n, field))
    k = code.recovery_threshold()
    errors = min(excess, n - k + 2, n)
    gen = random.Random(seed)
    a, b, dims, want = inputs_and_oracle(code, gen, q)
    results = [worker_multiply(ca, cb) for ca, cb in code.encode_all(a, b)]
    corrupted = list(results)
    for w in gen.sample(range(n), errors):
        data = corrupted[w].data.copy()
        if whole_block:
            delta = np.array([gen.randrange(q) for _ in range(data.size)], dtype=data.dtype)
            delta[gen.randrange(data.size)] = gen.randrange(1, q)
            data = (data + delta.reshape(data.shape)) % q
        else:
            at = np.unravel_index(gen.randrange(data.size), data.shape)
            data[at] = (int(data[at]) + gen.randrange(1, q)) % q
        corrupted[w] = MatrixF._wrap(field, data)

    for cache in (_cached_basis, _cached_lagrange_matrix, _seeded_pilots):
        cache.cache_clear()
    detected, fixed = repair_outcome(code, corrupted, dims)
    assert repair_outcome(code, corrupted, dims) == (detected, fixed)
    if errors <= n - k:
        assert fixed == want or (fixed is None and errors > (n - k) // 2)
        # a clean verdict carries the oracle; a flagged worker needs an error
        assert detected == want if isinstance(detected, list) else errors > 0
