"""Tests for prime-field arithmetic, polynomials, and interpolation."""

import random

import numpy as np
import pytest

from codedmm.errors import DivisionByZero, DuplicateEvaluationPoint, FieldMismatch
from codedmm.field import (
    _BASIS_CACHE,
    FieldPolynomial,
    PrimeField,
    _cached_basis,
    _cached_lagrange_matrix,
    interpolate_arrays,
    is_prime,
    lagrange_basis,
    lagrange_interpolate,
    lagrange_matrix,
    vandermonde,
    vanishing_polynomial,
)
from codedmm.schemes import EntangledCode

from oracles import naive_matmul_t, random_matrix


class TestPrimeField:
    def test_rejects_composite_modulus(self):
        for bad in (0, 1, 4, 6, 65536, 2**31):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_primes(self):
        for q in (2, 3, 7, 257, 65537, 2**31 - 1, (1 << 61) - 1):
            assert PrimeField(q).modulus == q

    def test_is_prime_spot_checks(self):
        assert is_prime(65537)
        assert not is_prime(65537 * 3)
        assert is_prime((1 << 61) - 1)

    def test_field_equality(self, gf7, gf257):
        assert gf7 == PrimeField(7)
        assert gf7 != gf257

    def test_inverse_extended_euclid_matches_fermat(self, gf257, rng):
        for _ in range(50):
            a = rng.randrange(1, 257)
            assert gf257.inv(a) == pow(a, 255, 257)

    def test_inverse_of_zero(self, gf7):
        with pytest.raises(DivisionByZero):
            gf7.inv(0)

    @pytest.mark.parametrize("q", [7, 65537, 2097143, (1 << 61) - 1])
    def test_inverse_times_element_is_one(self, q, rng):
        field = PrimeField(q)
        for _ in range(50):
            a = rng.randrange(1, q)
            assert a * field.inv(a) % q == 1
        with pytest.raises(DivisionByZero):
            field.inv(q)


class TestFieldElement:
    def test_add_wraps(self, gf7, gf257):
        assert (gf7(3) + gf7(5)).value == 1
        assert (gf257(256) + gf257(1)).value == 0

    def test_mul_and_inverse(self, gf7):
        assert (gf7(3) * gf7(5)).value == 1
        assert (gf7(3) ** -1).value == 5

    def test_div(self, gf7):
        assert (gf7(1) / gf7(3)).value == 5
        with pytest.raises(DivisionByZero):
            gf7(1) / gf7(0)

    def test_mixed_fields_rejected(self, gf7, gf257):
        with pytest.raises(FieldMismatch):
            gf7(1) + gf257(1)
        with pytest.raises(FieldMismatch):
            gf7(1) * gf257(1)

    def test_operator_arithmetic(self, gf7):
        assert (gf7(3) + gf7(5)).value == 1
        assert (gf7(3) - gf7(5)).value == 5
        assert (gf7(3) * gf7(5)).value == 1
        assert (gf7(3) / gf7(5)).value == 2  # 3 * 5^-1 = 3 * 3 = 2

    def test_axioms_on_random_triples(self, gf257, rng):
        for _ in range(200):
            a, b, c = (gf257(rng.randrange(257)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a.value:
                assert (a * (gf257(1) / a)).value == 1

    def test_int_coercion(self, gf7):
        assert gf7(3) + 5 == gf7(1)
        assert 2 * gf7(4) == gf7(1)

    def test_reflected_operators_and_other_operands(self, gf7):
        # an int on the left is reduced mod q like one on the right; any
        # other operand is left to Python, which refuses it
        assert (10 - gf7(5)).value == 5 and (gf7(5) - 10).value == 2
        assert (3 / gf7(5)).value == 2 and (gf7(3) / 12).value == 2
        assert (9 + gf7(5)).value == 0 and (-1 * gf7(2)).value == 5
        with pytest.raises(DivisionByZero):
            1 / gf7(0)
        for other in (1.5, "1", None):
            for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y):
                with pytest.raises(TypeError):
                    op(gf7(1), other)
                with pytest.raises(TypeError):
                    op(other, gf7(1))


class TestFieldPolynomial:
    def test_eval_quadratic(self, gf7):
        p = FieldPolynomial(gf7, [1, 1, 1])  # 1 + x + x^2
        assert p.evaluate(2).value == 0  # 4 + 2 + 1 = 7

    def test_eval_zero_polynomial(self, gf7):
        z = FieldPolynomial(gf7, [])
        assert z.degree is None
        assert z.is_zero()
        for x in range(7):
            assert z.evaluate(x).value == 0

    def test_eval_worked_example(self, gf7):
        # 4 + 4x + 6x^2 at x = 4: 4 + 16 + 96 = 116 = 4 mod 7
        p = FieldPolynomial(gf7, [4, 4, 6])
        assert p.evaluate(4).value == 4
        assert p.evaluate(1).value == 0
        assert p.evaluate(2).value == 1

    def test_trailing_zeros_trimmed(self, gf7):
        p = FieldPolynomial(gf7, [3, 0, 0])
        assert p.degree == 0
        assert p.coeffs == (3,)

    def test_mul_and_divmod_roundtrip(self, gf257, rng):
        for _ in range(30):
            a = FieldPolynomial(gf257, [rng.randrange(257) for _ in range(rng.randrange(1, 6))])
            b = FieldPolynomial(gf257, [rng.randrange(1, 257)] + [rng.randrange(257) for _ in range(rng.randrange(4))])
            quot, rem = divmod(a * b, b)
            assert rem.is_zero()
            assert quot == a

    def test_divmod_remainder(self, gf7):
        num = FieldPolynomial(gf7, [1, 0, 1])  # x^2 + 1
        den = FieldPolynomial(gf7, [6, 1])     # x - 1
        quot, rem = divmod(num, den)
        assert quot == FieldPolynomial(gf7, [1, 1])
        assert rem == FieldPolynomial(gf7, [2])

    def test_divide_by_zero_poly(self, gf7):
        with pytest.raises(DivisionByZero):
            divmod(FieldPolynomial(gf7, [1]), FieldPolynomial(gf7, []))


class TestLagrange:
    def test_three_point_example(self, gf7):
        pts = [(gf7(0), gf7(1)), (gf7(1), gf7(3)), (gf7(2), gf7(0))]
        assert lagrange_interpolate(pts) == FieldPolynomial(gf7, [1, 1, 1])

    def test_single_point_constant(self, gf7):
        assert lagrange_interpolate([(gf7(5), gf7(3))]) == FieldPolynomial(gf7, [3])

    def test_duplicate_points_rejected(self, gf7):
        with pytest.raises(DuplicateEvaluationPoint):
            lagrange_interpolate([(gf7(1), gf7(0)), (gf7(1), gf7(2))])

    def test_roundtrip_random_polynomials(self, gf257, rng):
        for _ in range(300):
            deg = rng.randrange(0, 8)
            coeffs = [rng.randrange(257) for _ in range(deg)] + [rng.randrange(1, 257)]
            p = FieldPolynomial(gf257, coeffs)
            xs = rng.sample(range(257), deg + 1)
            pts = [(gf257(x), p.evaluate(x)) for x in xs]
            assert lagrange_interpolate(pts) == p

    def test_basis_values_collapse_on_nodes(self, gf65537):
        xs = [0, 1, 2, 3]
        for i, x in enumerate(xs):
            vals = lagrange_matrix(gf65537, xs, [x])[0].tolist()
            assert vals == [1 if j == i else 0 for j in range(4)]

    def test_basis_values_match_interpolation(self, gf257, rng):
        xs = rng.sample(range(257), 5)
        ys = [rng.randrange(257) for _ in range(5)]
        p = lagrange_interpolate([(gf257(x), gf257(y)) for x, y in zip(xs, ys)])
        y = rng.randrange(257)
        vals = lagrange_matrix(gf257, xs, [y])[0].tolist()
        combined = sum(v * yv for v, yv in zip(vals, ys)) % 257
        assert combined == p.evaluate(y).value

    @pytest.mark.parametrize("q, xs", [
        (7, [3, 0, 6, 1, 5]),
        (65537, [65536, 0, 1, 40000, 2, 12345, 65535, 7]),
        ((1 << 61) - 1, [(1 << 61) - 2, 0, 1 << 40, 3, 123456789, 2]),
    ])
    def test_basis_inverts_the_vandermonde_matrix(self, q, xs):
        field = PrimeField(q)
        inverse = lagrange_basis(field, xs)
        table = vandermonde(field, xs, len(xs))
        assert inverse.shape == table.shape == (len(xs), len(xs))
        assert inverse.dtype == table.dtype == field.array_dtype
        identity = [[int(i == j) for j in range(len(xs))] for i in range(len(xs))]
        # naive_matmul_t(q, a, b) is a^T b
        assert naive_matmul_t(q, inverse.T.tolist(), table.tolist()) == identity
        assert naive_matmul_t(q, table.T.tolist(), inverse.tolist()) == identity

    @pytest.mark.parametrize("q", [2, 65537, 2097143, (1 << 61) - 1])
    def test_vandermonde_is_the_table_of_powers(self, q):
        # numpy points, points off [0, q) and more columns than one doubling
        # fills: at 2^61 - 1 a power times an int64 point would pass 2^63
        field = PrimeField(q)
        points = [np.arange(5), [q - 1, 2 * q + 3, -4, 1 << 70], []]
        for xs in points:
            for n_cols in (0, 1, 2, 7, 33):
                table = vandermonde(field, xs, n_cols)
                assert table.dtype == field.array_dtype and table.shape == (len(xs), n_cols)
                assert table.tolist() == [[pow(int(x), d, q) for d in range(n_cols)] for x in xs]
                assert all(type(v) is int for v in table.ravel().tolist())


@pytest.mark.parametrize("q", [65537, (1 << 61) - 1])
class TestBasisCache:
    """lagrange_basis, vanishing_polynomial and lagrange_matrix keep recent
    results, so the arrays they return are read-only; everything built from
    them is a fresh array the caller owns."""

    def test_repeated_calls_are_equal_and_read_only(self, q):
        field = PrimeField(q)
        builders = [
            lambda: lagrange_basis(field, [3, 1, 4]),
            lambda: lagrange_matrix(field, [3, 1, 4], [5, 9, 2, 6]),
        ]
        for build in builders:
            first, again = build(), build()
            assert first.tolist() == again.tolist()
            for cached in (first, again):
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 1
                with pytest.raises(ValueError):
                    cached += 1
            assert build().tolist() == first.tolist()

    def test_vanishing_polynomial_is_the_product_of_the_linear_factors(self, q):
        field = PrimeField(q)
        xs = [0, 7, q - 1, 12345, 2]
        direct = FieldPolynomial(field, [1])
        for x in xs:
            direct = direct * FieldPolynomial(field, [-x, 1])
        _cached_basis.cache_clear()
        assert vanishing_polynomial(field, xs) == direct  # built with the basis
        assert vanishing_polynomial(field, np.array(xs, dtype=object)) == direct  # from the cache
        assert all(direct.evaluate(x).value == 0 for x in xs)
        assert _cached_basis.cache_info().currsize == 1
        with pytest.raises(DuplicateEvaluationPoint):
            vanishing_polynomial(field, [1, 2, 1 + q])

    def test_cached_prediction_map_equals_a_fresh_one(self, q):
        field = PrimeField(q)
        rng = random.Random(q)
        xs = rng.sample(range(1000), 5)
        ys = rng.sample(range(1000), 4) + [xs[2]]
        cached = lagrange_matrix(field, xs, ys)
        assert lagrange_matrix(field, xs, ys) is cached
        _cached_lagrange_matrix.cache_clear()
        _cached_basis.cache_clear()
        fresh = lagrange_matrix(field, xs, ys)
        assert fresh is not cached
        assert fresh.dtype == cached.dtype == field.array_dtype
        assert fresh.tolist() == cached.tolist()
        # a point of xs maps to its own value
        assert cached[4].tolist() == [int(i == 2) for i in range(5)]

    def test_caches_stay_within_their_bound(self, q):
        field = PrimeField(q)
        for start in range(2 * _BASIS_CACHE):
            xs = [start, start + 1, start + 2]
            lagrange_matrix(field, xs, [start + 3])
        for cache in (_cached_basis, _cached_lagrange_matrix):
            info = cache.cache_info()
            assert info.maxsize == _BASIS_CACHE
            assert info.currsize == _BASIS_CACHE

    def test_duplicate_points_raise_on_every_call(self, q):
        for _ in range(3):
            with pytest.raises(DuplicateEvaluationPoint):
                lagrange_basis(PrimeField(q), [1, 2, 1 + q])

    def test_rows_outside_the_degrees_raise(self, q):
        # a negative row would otherwise read the master coefficients from the far end
        field = PrimeField(q)
        assert lagrange_basis(field, [3, 1, 4], []).shape == (0, 3)
        for rows in ([3], [0, -1], [2, 7]):
            with pytest.raises(ValueError):
                lagrange_basis(field, [3, 1, 4], rows)

    def test_numpy_points_give_the_python_points_basis(self, q):
        field = PrimeField(q)
        from_numpy = lagrange_basis(field, np.array([5, 9, 2]))
        from_ints = lagrange_basis(field, [5, 9, 2])
        assert from_numpy.dtype == from_ints.dtype == field.array_dtype
        assert from_numpy.tolist() == from_ints.tolist()
        mixed = [np.int32(7), 11, np.uint8(6)]
        assert lagrange_basis(field, mixed).tolist() == lagrange_basis(field, [7, 11, 6]).tolist()

    def test_arrays_built_from_a_basis_are_fresh_and_writeable(self, q):
        field = PrimeField(q)
        code = EntangledCode(2, 1, 1, 5, field)
        rng = random.Random(q)
        stack = code.worker_products(random_matrix(field, 2, 3, rng), random_matrix(field, 2, 2, rng))
        values = np.array([[1, 2], [3, 4], [5, 6]], dtype=field.array_dtype)
        builders = [
            lambda: interpolate_arrays(field, [0, 1, 2], values),
            lambda: code.decode(stack, [4, 0, 2]),
        ]
        for build in builders:
            first = build()
            expected = first.tolist()
            assert first.flags.writeable
            first[...] = 0
            assert build().tolist() == expected
