"""Tests for polynomials, canonical rational functions, and series expansion."""

import random
from fractions import Fraction

import pytest

from recsums.polyrat import (GCD_PRIME, EvalPoleError, Polynomial,
                             RationalFunction, _cleared, _coprime_mod_prime,
                             _mul, poly_gcd, poly_to_text, rf_to_latex, rf_to_text)
from references import euclid_gcd, poly_mul, poly_scale

X = Polynomial([0, 1])


def test_gcd_basic():
    p = Polynomial([-1, 0, 1])          # x^2 - 1
    q = Polynomial([-1, 1])             # x - 1
    assert poly_gcd(p, q) == q


def test_eval_at_one():
    assert Polynomial([1, -1, -1])(Fraction(1)) == -1


def test_eq3_denominator_product():
    # (1 - V3 x - x^2)(1 + b V1 x - x^2) at a = b = 1: V3 = 4, V1 = 1
    assert _mul([1, -4, -1], [1, 1, -1]) == [1, -3, -6, 3, 1]


def test_normalize_cancels_common_factor():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
    assert f == RationalFunction(Polynomial([1, 1]), Polynomial([1]))
    assert f.num == Polynomial([1, 1])
    assert f.den == Polynomial([1])


def test_equals_is_blind_to_common_factors():
    f = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1, -1]))
    shared = Polynomial([2, 1])
    g = RationalFunction(poly_mul(f.num, shared), poly_mul(f.den, shared))
    assert f == g


def test_expand_fibonacci():
    f = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1, -1]))
    assert f.expand(8) == tuple(Fraction(v) for v in [0, 1, 1, 2, 3, 5, 8, 13])


def test_expand_geometric():
    f = RationalFunction(Polynomial([1]), Polynomial([1, -1]))
    assert f.expand(4) == (1, 1, 1, 1)


def test_expand_fibonacci_squares():
    num = poly_mul(Polynomial([0, 1]), Polynomial([1, -1]))
    den = poly_mul(Polynomial([1, 1]), Polynomial([1, -3, 1]))
    f = RationalFunction(num, den)
    # brute-force oracle: squares of the recurrence terms
    fib = [0, 1]
    while len(fib) < 7:
        fib.append(fib[-1] + fib[-2])
    assert f.expand(7) == tuple(Fraction(v * v) for v in fib)


def test_expand_pole_at_origin():
    with pytest.raises(EvalPoleError):
        RationalFunction(Polynomial([1]), Polynomial([0, 1])).expand(3)


def _random_poly(rng, max_deg=4):
    return Polynomial(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
         for _ in range(rng.randint(0, max_deg + 1))]
    )


def test_equal_polynomials_hash_equal():
    p = Polynomial([1, 2, 3])
    assert Polynomial([3]) == 3 and hash(Polynomial([3])) == hash(3)
    assert Polynomial() == 0 and hash(Polynomial()) == hash(0)
    f = RationalFunction(p, Polynomial([1, -2]))
    assert len({f, RationalFunction(poly_scale(p, 2), Polynomial([2, -4]))}) == 1


def _coprime_cleared(p, q):
    """The fast path on p and q, each cleared to an integer polynomial."""
    return _coprime_mod_prime(*_cleared(p.coeffs), *_cleared(q.coeffs))


def test_gcd_fast_path_equals_euclid():
    rng = random.Random(17)
    proven = 0
    for _ in range(60):
        p, q = _random_poly(rng), _random_poly(rng)
        common = _random_poly(rng, max_deg=2) if rng.random() < 0.5 else Polynomial([1])
        p, q = poly_mul(p, common), poly_mul(q, common)
        proven += _coprime_cleared(p, q)
        assert poly_gcd(p, q) == euclid_gcd(p, q)
    assert proven > 10


def test_prime_dividing_a_leading_coefficient_takes_euclid():
    # mod the prime, shared = 1, so the reduced pair looks coprime there
    shared = Polynomial([1, GCD_PRIME])
    p = poly_mul(shared, Polynomial([1, 1]))
    q = poly_mul(shared, Polynomial([2, 1]))
    assert not _coprime_cleared(p, q)
    assert poly_gcd(p, q) == Polynomial([Fraction(1, GCD_PRIME), 1])
    # a cleared leading coefficient the prime divides (2 + P x) has no
    # inverse there, though the pair is coprime: Euclid again
    r = Polynomial([1, Fraction(GCD_PRIME, 2)])
    assert not _coprime_cleared(r, Polynomial([2, 1]))
    assert poly_gcd(r, q) == euclid_gcd(r, q) == Polynomial([1])
    # a denominator the prime divides clears away: 1 + x/P is P + x, whose
    # leading coefficient is 1, so the pair is proven coprime
    s = Polynomial([1, Fraction(1, GCD_PRIME)])
    assert _coprime_cleared(s, Polynomial([2, 1]))
    assert poly_gcd(s, q) == euclid_gcd(s, q) == Polynomial([1])


def test_expand_of_product_is_cauchy_product():
    rng = random.Random(7)
    order = 12
    for _ in range(25):
        fn, gn = _random_poly(rng), _random_poly(rng)
        fd, gd = _random_poly(rng), _random_poly(rng)
        if not fd or not fd.coeff(0) or not gd or not gd.coeff(0):
            continue
        f = RationalFunction(fn, fd)
        g = RationalFunction(gn, gd)
        fs, gs = f.expand(order), g.expand(order)
        cauchy = [sum(fs[j] * gs[i - j] for j in range(i + 1)) for i in range(order)]
        product = RationalFunction(poly_mul(f.num, g.num), poly_mul(f.den, g.den))
        assert product.expand(order) == tuple(cauchy)


def test_expand_agrees_with_naive_long_division():
    rng = random.Random(11)
    order = 10
    for _ in range(25):
        num, den = _random_poly(rng), _random_poly(rng)
        if not den or not den.coeff(0):
            continue
        f = RationalFunction(num, den)
        # independent oracle: schoolbook long division of num by den
        rem = list(f.num.coeffs) + [Fraction(0)] * (order + f.den.degree + 1)
        out = []
        d0 = f.den.coeff(0)
        for i in range(order):
            c = rem[i] / d0
            out.append(c)
            for j in range(f.den.degree + 1):
                rem[i + j] -= c * f.den.coeff(j)
        assert f.expand(order) == tuple(out)


def test_normalization_idempotent_and_equality_consistent():
    rng = random.Random(13)
    for _ in range(30):
        num, den = _random_poly(rng), _random_poly(rng)
        if not den:
            continue
        f = RationalFunction(num, den)
        again = RationalFunction(f.num, f.den)
        assert f == again
        assert (f.num, f.den) == (again.num, again.den)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        g = RationalFunction(poly_scale(num, scale), poly_scale(den, scale))
        assert f == g


def test_canonical_denominator_constant_term_one():
    f = RationalFunction(Polynomial([0, 3]), Polynomial([2, -2, -2]))
    assert f.den.coeff(0) == 1
    assert f.num == Polynomial([0, Fraction(3, 2)])


def test_monic_fallback_when_origin_is_pole():
    f = RationalFunction(Polynomial([1]), Polynomial([0, 0, 3]))
    assert f.den == Polynomial([0, 0, 1])
    assert f.num == Polynomial([Fraction(1, 3)])


def test_rendering_text_and_latex():
    f = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1, -1]))
    assert rf_to_text(f) == "x/(1 - x - x^2)"
    assert rf_to_latex(f) == "\\frac{x}{1 - x - x^{2}}"
    g = RationalFunction(Polynomial([0, 1, -1]), Polynomial([1, -2, -2, 1]))
    assert rf_to_text(g) == "(x - x^2)/(1 - 2x - 2x^2 + x^3)"
    assert poly_to_text(Polynomial([Fraction(-3, 2), 0, 2])) == "-3/2 + 2x^2"
    assert poly_to_text(Polynomial([0, Fraction(5, 2)])) == "(5/2)x"
    assert poly_to_text(Polynomial()) == "0"
    assert rf_to_text(RationalFunction(Polynomial([4]), Polynomial([2]))) == "2"
