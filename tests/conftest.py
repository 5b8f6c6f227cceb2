import importlib
import os
import pkgutil
import random
import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import codedmm
from codedmm import convolution as convolution_module
from codedmm import field as field_module
from codedmm.field import PrimeField

GF7 = PrimeField(7)
GF257 = PrimeField(257)
GF65537 = PrimeField(65537)


@pytest.fixture
def rng():
    """Seeded stdlib generator; reseeded per test for isolation."""
    return random.Random(0xC0DED)


@pytest.fixture
def gf7():
    return GF7


@pytest.fixture
def gf257():
    return GF257


@pytest.fixture
def gf65537():
    return GF65537


# -- shadow-checked kernels ----------------------------------------------------
#
# With CODEDMM_SHADOW=1 in the environment, every call of the package's exact
# kernels (field.modmatmul, field.combine, field.mulmod and
# convolution.field_convolve) is recomputed on Python ints through numpy's
# object arithmetic, which shares no code with the kernels, and a call whose
# result differs fails the test that made it.  Calls past SHADOW_MUL_ADDS
# multiply-adds are counted but not recomputed.  The wrappers replace the
# names in every codedmm module that bound them, so calls between the
# package's modules, and from the kernels to each other, are checked too.

SHADOW_MUL_ADDS = 1 << 20
_shadow_counts: dict[str, list[int]] = {}  # kernel -> [checked, skipped]


def _objects(x) -> np.ndarray:
    return np.asarray(x).astype(object)


def _shadow_modmatmul(a, b, q):
    rows, inner = np.shape(a)[-2:]
    size = prod(np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2])) * rows * np.shape(b)[-1]
    return size * inner, lambda: _objects(a) @ _objects(b) % q


def _shadow_combine(field, weights, parts, out=None):
    k, t = np.shape(weights)
    size = np.size(parts[0])
    # the parts are copied before the call, in case out overlaps them
    stack = _objects(parts).reshape(t, -1) if k * t * size <= SHADOW_MUL_ADDS else None
    return k * t * size, lambda: (_objects(weights) @ stack % field.modulus).reshape(k, *np.shape(parts[0]))


def _shadow_mulmod(a, b, q):
    return prod(np.broadcast_shapes(np.shape(a), np.shape(b))), lambda: _objects(a) * _objects(b) % q


def _shadow_convolve(field, a, b):
    q = field.modulus
    return np.size(a) * np.size(b), lambda: np.convolve(_objects(a) % q, _objects(b) % q) % q


def _shadowed(name: str, kernel, shadow):
    counts = _shadow_counts.setdefault(name, [0, 0])

    def checked(*args, **kwargs):
        try:
            mul_adds, expected = shadow(*args, **kwargs)
        except (TypeError, ValueError, IndexError):
            # arguments the shadow cannot read: the kernel's own refusal is
            # what the calling test checks
            mul_adds = None
        got = kernel(*args, **kwargs)
        if mul_adds is None or mul_adds > SHADOW_MUL_ADDS:
            counts[1] += 1
            return got
        counts[0] += 1
        want = expected()
        if np.shape(got) != np.shape(want) or np.asarray(got).tolist() != want.tolist():
            raise AssertionError(f"shadow check: {name} differs from its Python-int recomputation")
        return got

    checked.__wrapped__ = kernel
    return checked


def _install_shadow():
    for info in pkgutil.iter_modules(codedmm.__path__):
        if info.name != "__main__":
            importlib.import_module(f"codedmm.{info.name}")
    kernels = [
        (field_module, "modmatmul", _shadow_modmatmul),
        (field_module, "combine", _shadow_combine),
        (field_module, "mulmod", _shadow_mulmod),
        (convolution_module, "field_convolve", _shadow_convolve),
    ]
    for home, name, shadow in kernels:
        kernel = getattr(home, name)
        wrapper = _shadowed(name, kernel, shadow)
        for module in list(sys.modules.values()):
            if module.__name__.partition(".")[0] == "codedmm" and getattr(module, name, None) is kernel:
                setattr(module, name, wrapper)


if os.environ.get("CODEDMM_SHADOW") == "1":
    _install_shadow()


def pytest_terminal_summary(terminalreporter):
    if not _shadow_counts:
        return
    total = [sum(c) for c in zip(*_shadow_counts.values())]
    for name, (checked, skipped) in {**_shadow_counts, "all kernels": total}.items():
        share = checked / (checked + skipped) if checked + skipped else 1.0
        terminalreporter.write_line(
            f"shadow check {name}: {checked} calls checked, {skipped} skipped, past "
            f"{SHADOW_MUL_ADDS} multiply-adds or refused ({share:.1%} checked)"
        )
