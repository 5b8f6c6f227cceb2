"""Property-based differential tests against the brute-force oracles.

hypothesis draws the parameters; every example is checked against
tests/oracles.py, which shares no code with the library's fast paths.
Runs are derandomized and keep no example database, so tier-1 sees the
same examples on every machine.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedmm.bilinear import (
    ElementwiseProductCode,
    ImprovedBilinearCode,
    standard_construction,
    strassen_construction,
)
from codedmm.blocks import MatrixF
from codedmm.convolution import ConvCodeSpec, conv_spec, field_convolve
from codedmm.errors import SingularDecodeSystem
from codedmm.field import PrimeField
from codedmm.schemes import (
    CodingScheme,
    EntangledCode,
    GeneralPolynomialCode,
    PolynomialCodeSpec,
    RandomLinearCode,
    UncodedRepetitionCode,
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
