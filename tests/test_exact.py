"""Unit and property tests for the exact arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg.exact import (
    DenominatorVanishes,
    ExprSyntaxError,
    NonInvertibleDenominator,
    NonRealValue,
    Poly,
    RatExpr,
    Scalar,
    parse_expr,
    reduce_mod_p,
)


def R(text):
    return parse_expr(text)


class TestScalar:
    def test_basic_arithmetic(self):
        a = Scalar(1, 2)
        b = Scalar(Fraction(1, 2), -1)
        assert a + b == Scalar(Fraction(3, 2), 1)
        assert a * b == Scalar(Fraction(5, 2), 0)
        assert -a == Scalar(-1, -2)

    def test_division_by_conjugate(self):
        one = Scalar(0, 1) * Scalar(0, -1)
        assert one == Scalar(1)
        assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / Scalar(0)

    def test_i_squared(self):
        assert Scalar(0, 1) ** 2 == Scalar(-1)


class TestPoly:
    def test_zero_coefficients_dropped(self):
        p = Poly.var("x") - Poly.var("x")
        assert p.is_zero
        assert p.terms == {}

    def test_mul_collects_terms(self):
        x = Poly.var("x")
        y = Poly.var("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_degree(self):
        x = Poly.var("x")
        y = Poly.var("y")
        p = x * x * y + y
        assert p.degree_in({"x"}) == 2


class TestRatExpr:
    def test_equality_by_cross_multiplication(self):
        # x^2/x equals x without any GCD reduction happening
        x = RatExpr.var("x")
        assert (x * x) / x == x

    def test_unreduced_representation_kept(self):
        x = RatExpr.var("x")
        q = (x * x) / x
        assert q.num.degree_in({"x"}) == 2  # numerator was not cancelled

    def test_constant_denominator_folds(self):
        q = R("x/2")
        assert q.den == Poly.const(1)
        assert q.num == Poly.var("x").scale(Scalar(Fraction(1, 2)))

    def test_add_same_denominator(self):
        a = R("x/(1-m)")
        b = R("(2*x)/(1-m)")
        c = a + b
        assert c == R("(3*x)/(1-m)")
        assert c.den == R("1-m").num

    def test_zero_test_is_numerator(self):
        q = R("(x-x)/(1-m)")
        assert q.is_zero

    def test_division_by_zero_expr(self):
        with pytest.raises(DenominatorVanishes):
            R("x") / R("0")

    def test_negative_power(self):
        q = R("x") ** -2
        assert q == R("1/(x^2)")

    def test_unhashable_since_equal_values_differ_in_form(self):
        # x*y/y == x, but no hash of the unreduced form could agree
        assert R("x*y/y") == R("x")
        with pytest.raises(TypeError):
            hash(R("x"))
        with pytest.raises(TypeError):
            {R("x*y/y"), R("x")}

    def test_substitute_simple(self):
        q = R("(1+m)/(1-m)")
        assert q.substitute({"m": RatExpr.const(0)}) == RatExpr.const(1)
        v = q.substitute({"m": RatExpr.const(3)})
        assert v == RatExpr.const(-2)

    def test_substitute_vanishing_denominator(self):
        q = R("(1+m)/(1-m)")
        with pytest.raises(DenominatorVanishes):
            q.substitute({"m": RatExpr.const(1)})

    def test_substitute_is_partial(self):
        q = R("x*y + y^2")
        s = q.substitute({"x": RatExpr.const(2)})
        assert s == R("2*y + y^2")
        assert s.params() == {"y"}


class TestParsePrint:
    def test_rational_literal(self):
        assert R("3/4") == RatExpr.const(Fraction(3, 4))

    def test_imaginary_unit(self):
        assert R("i^2") == RatExpr.const(-1)
        assert R("2*i") == RatExpr.const(Scalar(0, 2))

    def test_precedence(self):
        assert R("1+2*3") == RatExpr.const(7)
        assert R("-x^2") == -(R("x") ** 2)
        assert R("2^3") == RatExpr.const(8)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr("x + @")
        assert e.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x 3")

    def test_division_by_zero_literal(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/0")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x/(2-2)")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("")

    def test_roundtrip_examples(self):
        for text in [
            "0", "1", "-1/2", "x", "-x", "x^2*y - 3", "(1+m)/(1-m)",
            "i", "-i", "2*i*x", "(1+2*i)*x + y", "(x^2 + 1/3)/(y)",
            "-r22*r43/r32", "(r21^2+r22^2)/(2*r22)",
        ]:
            e = R(text)
            printed = str(e)
            again = R(printed)
            assert again == e
            assert str(again) == printed  # printing is a fixed point


# --- hypothesis property tests ------------------------------------------------

fracs = st.fractions(min_value=-12, max_value=12, max_denominator=7)
scalars = st.builds(Scalar, fracs, fracs)
names = st.sampled_from(["x", "y", "z"])


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    p = Poly.zero()
    for _ in range(n):
        c = draw(scalars)
        mono = Poly.const(1)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono = mono * Poly.var(draw(names))
        p = p + mono.scale(c)
    return p


@st.composite
def ratexprs(draw):
    num = draw(polys())
    den = draw(polys())
    if den.is_zero:
        den = Poly.const(1) + Poly.var("z")
    return RatExpr(num, den)


@settings(max_examples=60, deadline=None)
@given(ratexprs(), ratexprs(), ratexprs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RatExpr.const(0) == a
    assert a * RatExpr.const(1) == a
    assert a - a == RatExpr.const(0)


@settings(max_examples=60, deadline=None)
@given(ratexprs())
def test_print_parse_roundtrip(e):
    printed = str(e)
    again = parse_expr(printed)
    assert again == e
    assert str(again) == printed


@settings(max_examples=60, deadline=None)
@given(ratexprs(), ratexprs(), st.fractions(min_value=-5, max_value=5, max_denominator=3))
def test_substitution_is_homomorphism(a, b, v):
    binding = {"x": RatExpr.const(Fraction(v))}
    try:
        sa = a.substitute(binding)
        sb = b.substitute(binding)
        ssum = (a + b).substitute(binding)
        sprod = (a * b).substitute(binding)
    except DenominatorVanishes:
        return  # binding hit a pole; nothing to compare
    assert ssum == sa + sb
    assert sprod == sa * sb


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=9),
       st.fractions(min_value=-20, max_value=20, max_denominator=9),
       st.sampled_from([2, 3, 5, 7]))
def test_reduce_mod_p_is_homomorphism(x, y, p):
    a = RatExpr.const(Fraction(x))
    b = RatExpr.const(Fraction(y))
    try:
        ra, rb = reduce_mod_p(a, p), reduce_mod_p(b, p)
        rsum = reduce_mod_p(a + b, p)
        rprod = reduce_mod_p(a * b, p)
    except NonInvertibleDenominator:
        return
    assert rsum == (ra + rb) % p
    assert rprod == (ra * rb) % p


def test_reduce_mod_p_examples():
    assert reduce_mod_p(parse_expr("1/2"), 5) == 3
    assert reduce_mod_p(parse_expr("-1"), 2) == 1
    with pytest.raises(NonInvertibleDenominator):
        reduce_mod_p(parse_expr("3/4"), 2)
    with pytest.raises(NonRealValue):
        reduce_mod_p(parse_expr("i"), 5)


def test_reduce_mod_p_rejects_parameters():
    with pytest.raises(ValueError):
        parse_expr("x+1").as_scalar()
