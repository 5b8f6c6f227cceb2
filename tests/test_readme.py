"""The README's library sketch runs as written and computes what its comments say."""

import re
from pathlib import Path

import numpy as np

from oracles import direct_convolution, naive_matmul_t

README = Path(__file__).resolve().parent.parent / "README.md"


def sketch_code() -> str:
    """The python block under the "Library sketch" heading."""
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_to_the_oracles():
    scope: dict = {}
    exec(compile(sketch_code(), "README.md (library sketch)", "exec"), scope)
    a, b = scope["a"], scope["b"]
    want = naive_matmul_t(65537, a.data.tolist(), b.data.tolist())
    assert scope["product"].tolist() == want
    assert isinstance(scope["fixed"], np.ndarray) and scope["fixed"].tolist() == want
    assert scope["xy"].tolist() == direct_convolution(65537, scope["x"], scope["y"])
