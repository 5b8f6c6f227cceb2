"""Tests for prime-field arithmetic, polynomials, and interpolation."""

import pytest

from codedmm.errors import DivisionByZero, DuplicateEvaluationPoint, FieldMismatch
from codedmm.field import (
    FieldPolynomial,
    PrimeField,
    is_prime,
    lagrange_interpolate,
    lagrange_matrix,
)


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
