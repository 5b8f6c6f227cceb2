"""Property-based differential tests against the brute-force oracles.

hypothesis draws the parameters; every example is checked against
tests/oracles.py, which shares no code with the library's fast paths.
Runs are derandomized and keep no example database, so tier-1 sees the
same examples on every machine.
"""

import random
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from codedmm import field as field_module
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
    exact_limb_terms,
    lagrange_basis,
    modmatmul,
)
from codedmm.robust import Clean, _seeded_pilots, correct_errors, detect_errors
from codedmm.schemes import (
    CodingScheme,
    EntangledCode,
    GeneralPolynomialCode,
    RandomLinearCode,
    UncodedRepetitionCode,
)

from oracles import direct_convolution, elementwise_product, naive_matmul_t, vandermonde_inverse

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
    return GeneralPolynomialCode(
        p=p, m=m, n=n, N=N, alpha=m, beta=1, theta=(2 * p - 1) * m,
        x_points=tuple(gen.sample(range(field.modulus), N)), field=field,
    )


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


def off_canonical(gen, q, stack):
    """stack + k q, k drawn per entry of either sign: int64 entries up to 2^57 or 3q, Python ints past 2^63."""
    bound = min(1 << 40, (1 << 62) // q) if stack.dtype == np.int64 else 1 << 10
    k = np.array([gen.randint(-bound, bound) for _ in range(stack.size)], dtype=stack.dtype)
    return stack + q * k.reshape(stack.shape)


def past_int64(gen, q, stack):
    """stack + k q as uint64, k drawn per entry so that every entry is at least 2^63."""
    low, high = -(-(1 << 63) // q), (1 << 64) // q - 1
    shifted = [int(x) + q * gen.randint(low, high) for x in stack.ravel().tolist()]
    return np.array(shifted, dtype=np.uint64).reshape(stack.shape)


@pytest.mark.parametrize("q", [257, 65537, 2097143, (1 << 61) - 1])
@pytest.mark.parametrize("name", sorted(SEVEN_CODES))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_code_decodes_any_k_subset_to_the_oracle(name, q, seed):
    # the subset's results decode to the oracle from the stack, a list and a
    # mapping, as they are and shifted off [0, q), also as uint64 past 2^63
    # and as Python ints; the subset with some workers repeated decodes as
    # the subset of its distinct workers does
    gen = random.Random(seed)
    code = SEVEN_CODES[name](PrimeField(q), gen)
    assert isinstance(code, CodingScheme)
    a, b, dims, want = inputs_and_oracle(code, gen, q)
    stack = code.worker_products(a, b)
    assert len(stack) == code.N
    subset = gen.sample(range(code.N), code.recovery_threshold())  # in any order
    results = {w: stack[w] for w in subset}
    shifted = off_canonical(gen, q, stack)
    repeated = list(subset)
    for _ in range(gen.randint(1, 3)):
        repeated.insert(gen.randrange(len(repeated) + 1), gen.choice(subset))
    distinct = list(dict.fromkeys(repeated))
    unsigned = past_int64(gen, q, stack)
    objects = off_canonical(gen, q, stack.astype(object))
    decodes = [
        lambda: code.decode(results, subset, dims),
        lambda: code.decode(list(stack), subset, dims),
        lambda: code.decode(shifted, subset, dims),
        lambda: code.decode(unsigned, subset, dims),
        lambda: code.decode(objects, subset, dims),
        lambda: code.decode(dict(enumerate(objects)), subset, dims),
        lambda: code.decode(shifted, repeated, dims),
        lambda: code.decode(results, repeated, dims),
    ]
    _cached_basis.cache_clear()  # the first decode builds its rows, the others read them
    try:
        got = code.decode(stack, subset, dims)
    except SingularDecodeSystem:
        # a random draw may be singular on this subset, in any order: reported, never decoded wrongly
        assert name == "random-linear"
        for decode in decodes:
            with pytest.raises(SingularDecodeSystem):
                decode()
        return
    assert np.asarray(got).ravel().tolist() == np.ravel(want).tolist()
    from_distinct = code.decode(stack, distinct, dims)
    for decode, same_as in zip(decodes, [got] * 6 + [from_distinct] * 2):
        assert np.array_equal(decode(), same_as)



# both ends of the int64 path, a small and a mid-size prime, and an object field
BASIS_FIELDS = [3, 257, 65537, 2097143, (1 << 61) - 1]


@pytest.mark.parametrize("q", BASIS_FIELDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_basis_rows_equal_the_oracle_inverse(q, k, seed):
    # lagrange_basis's rows, picked at random and in any order or all of
    # them, are the rows of the Gauss-Jordan inverse of the Vandermonde
    # matrix, built on a cold cache and read again from a warm one; one
    # point is given off [0, q)
    gen = random.Random(seed)
    k = min(k, q)
    xs = gen.sample(range(q), k)
    xs[gen.randrange(k)] += q * gen.randint(1, 3)
    field = PrimeField(q)
    want = vandermonde_inverse(q, xs)
    picked = gen.sample(range(k), gen.randint(1, k))
    for rows, expected in ((None, want), (picked, [want[d] for d in picked])):
        _cached_basis.cache_clear()
        for _ in ("cold", "warm"):
            got = lagrange_basis(field, xs, rows)
            assert got.dtype == field.array_dtype
            assert got.tolist() == expected


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


@pytest.mark.parametrize("q", KERNEL_FIELDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=20,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    k=st.integers(1, 4),
    past=st.integers(-1, 1),
    shape=st.sampled_from([(7,), (5, 6), (3, 4, 5)]),
    views=st.booleans(),
    listed=st.booleans(),
    out=st.sampled_from(["fresh", "array", "views"]),
    plan=st.sampled_from(["one matmul", "one tile", "part rows", "last-axis cuts"]),
    top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_combine_equals_the_oracle(q, k, past, shape, views, listed, out, plan, top, seed):
    # combine's k x t weights on t parts of one to three dimensions, t across
    # the chunk boundary at 2097143, read from a stack or a list, strided or
    # not, and written fresh, into one array or into a list of strided views
    # of one assembled array.  The workspace is sized so that the tile loop
    # cuts the parts into slabs of whole part-rows, or into single part-rows
    # cut along the last axis, and no workspace request is larger than it.
    rng = np.random.default_rng(seed)
    gen = random.Random(seed)
    low = q - 2 if top else 0
    step = exact_float_terms(q)
    t = (step if step <= 1 << 9 else 30) + past
    chunk = min(t, step)
    weights = rng.integers(low, q, size=(k, t))
    parts = rng.integers(low, q, size=(t, *shape[:-1], 2 * shape[-1]))
    parts = parts[..., ::2] if views else parts[..., :shape[-1]]
    lead, last = shape[0], shape[-1]
    row = prod(shape) // lead  # entries of one part-row
    if plan == "last-axis cuts" and len(shape) > 1:  # w of the last axis' entries per tile
        budget = k * chunk + (chunk + 2 * k) * row // last * gen.randint(k, last - 1)
    elif plan in ("part rows", "last-axis cuts"):  # h whole part-rows (entries of a vector) per tile
        budget = k * chunk + (chunk + 2 * k) * row * gen.randint(-(-k // row), lead - 1)
    else:
        budget = field_module._TILE_ELEMS
    assembled = np.full((*shape[:-1], k * last), -1)
    target = {"fresh": None, "array": np.full((k, *shape), -1),
              "views": [assembled[..., i::k] for i in range(k)]}[out]
    requests = []
    workspace = field_module._workspace
    with mock.patch.multiple(field_module, _TILE_ELEMS=budget,
                             _INT64_MUL_ADDS=field_module._INT64_MUL_ADDS if plan == "one matmul" else 0,
                             _workspace=lambda n: requests.append(n) or workspace(n)):
        got = combine(PrimeField(q), weights, list(parts) if listed else parts, out=target)
    want = naive_matmul_t(q, weights.T.tolist(), parts.reshape(t, -1).tolist())
    if out == "views":
        assert got is target and assembled.min() >= 0
        got = np.stack(got)
    assert got.shape == (k, *shape)
    assert got.reshape(k, -1).tolist() == want
    assert max(requests, default=0) <= budget



# the limb path's moduli (2^21 <= q < 2^63): both ends, and the Mersenne
# primes 2^31 - 1 and 2^61 - 1
LIMB_FIELDS = [2097169, (1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57, (1 << 63) - 25]


@pytest.mark.parametrize("q", LIMB_FIELDS)
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
def test_limb_kernel_equals_the_oracles(q, rows, cols, past, stack, views, top, seed):
    # test_kernel_equals_the_oracles over the large fields, every object
    # product sent to the limb path, on contractions one short of, at and
    # one past exact_limb_terms(q), the float64 chunk; views are strided
    # operands and parts
    rng = np.random.default_rng(seed)
    low = q - 2 if top else 0
    draw = lambda *shape: rng.integers(low, q, size=shape).astype(object)
    inner = exact_limb_terms(q) + past
    entries = 1 if stack == "none" else 3
    a, b = draw(entries, rows, 2 * inner), draw(entries, 2 * inner, cols)
    a, b = (a[..., ::2], b[:, ::2]) if views else (a[..., :inner], b[:, :inner])
    if stack != "both":  # one operand is a single matrix
        a = a[0] if stack != "b shared" else a
        b = b[0] if stack != "a shared" else b
    field = PrimeField(q)
    weights, parts = draw(rows + cols, inner), draw(inner, rows, 2 * cols)[..., ::2] if views else draw(inner, rows, cols)
    with mock.patch.multiple(field_module, _LIMB_MIN_MUL_ADDS=0):
        got = modmatmul(a, b, q).reshape(-1, rows, cols)
        combined = combine(field, weights, list(parts) if views else parts)
    pairs = zip(np.broadcast_to(a, (len(got), rows, inner)), np.broadcast_to(b, (len(got), inner, cols)))
    assert got.tolist() == [naive_matmul_t(q, x.T.tolist(), y.tolist()) for x, y in pairs]
    assert all(type(x) is int for x in got.flat)
    want = naive_matmul_t(q, weights.T.tolist(), parts.reshape(inner, -1).tolist())
    assert combined.reshape(rows + cols, -1).tolist() == want

# (name, N): K = 5 for the entangled code, K = 13 for strassen's improved
# code, whose N = 13 leaves no redundancy and N = 19 corrects 3 errors, K = 5
# for the element-wise code of length 3 and K = 3 for the convolution code
# of 2 + 2 blocks
REPAIR_CODES = (
    [("entangled", n) for n in range(7, 12)] + [("improved", n) for n in (13, 15, 17, 19)]
    + [("elementwise", n) for n in range(5, 10)] + [("convolution", n) for n in range(3, 8)]
)
MAKE_REPAIR_CODE = {
    "entangled": lambda f, n, g: EntangledCode(2, 2, 1, n, f),
    "improved": lambda f, n, g: ImprovedBilinearCode(strassen_construction(), n, f),
    "elementwise": lambda f, n, g: ElementwiseProductCode(3, n, f),
    "convolution": lambda f, n, g: conv_spec(2, 2, n, g.randint(1, 4), f),
}


def repair_outcome(code, results, dims):
    """(detection's verdict, correction's product or None for a refusal), as flat lists.

    Each product comes in the form of the results: a MatrixF for MatrixF
    results, else an array.
    """
    matrices = isinstance(results, list)

    def flat(product):
        assert isinstance(product, MatrixF) == matrices
        return np.ravel(product.data if matrices else product).tolist()

    verdict = detect_errors(code, results, dims=dims)
    detected = flat(verdict.matrix) if isinstance(verdict, Clean) else verdict.worker
    try:
        fixed = flat(correct_errors(code, results, dims=dims))
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
    # caches cleared and again with them warm, to the same outcome.  The
    # results go in as the worker_products stack shifted off [0, q) and,
    # for the matrix codes, as a list of MatrixF, to the same outcome.
    name, n = code_n
    field = PrimeField(q)
    gen = random.Random(seed)
    code = MAKE_REPAIR_CODE[name](field, n, gen)
    k = code.recovery_threshold()
    errors = min(excess, n - k + 2, n)
    a, b, dims, want = inputs_and_oracle(code, gen, q)
    stack = code.worker_products(a, b)
    for w in gen.sample(range(n), errors):
        data = stack[w]
        if whole_block:
            delta = np.array([gen.randrange(q) for _ in range(data.size)], dtype=data.dtype)
            delta[gen.randrange(data.size)] = gen.randrange(1, q)
            stack[w] = (data + delta.reshape(data.shape)) % q
        else:
            at = np.unravel_index(gen.randrange(data.size), data.shape)
            data[at] = (int(data[at]) + gen.randrange(1, q)) % q
    forms = [off_canonical(gen, q, stack)]
    if name in ("entangled", "improved"):
        forms.append([MatrixF._wrap(field, block) for block in stack])

    for cache in (_cached_basis, _cached_lagrange_matrix, _seeded_pilots):
        cache.cache_clear()
    detected, fixed = repair_outcome(code, forms[0], dims)
    for results in forms:
        assert repair_outcome(code, results, dims) == (detected, fixed)
    want = np.ravel(want).tolist()
    if errors <= n - k:
        assert fixed == want or (fixed is None and errors > (n - k) // 2)
        # a clean verdict carries the oracle; a flagged worker needs an error
        assert detected == want if isinstance(detected, list) else errors > 0
