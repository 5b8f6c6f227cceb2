"""Property-based differential tests against the brute-force oracles.

hypothesis draws the parameters; every example is checked against
tests/oracles.py, which shares no code with the library's fast paths.
Runs are derandomized and keep no example database, so tier-1 sees the
same examples on every machine.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from codedmm.convolution import field_convolve
from codedmm.field import PrimeField

from oracles import direct_convolution

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
