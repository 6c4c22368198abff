"""Unit and property tests for the exact arithmetic layer."""

import copy
import pickle
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
    RE_ZERO,
    Scalar,
    _POLY_ONE,
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
    p = Poly()
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


# --- the denominator-one fast paths ------------------------------------------

def _den_ok(e):
    """The invariant the fast paths rely on."""
    return e.den is _POLY_ONE or not e.den.is_const


# a denominator of one (with or without a zero numerator), a constant one
# folded into the numerator, and non-constant ones
operands = st.one_of(
    ratexprs(),
    polys().map(RatExpr),
    st.builds(RatExpr, polys(), st.builds(Poly.const, scalars.filter(bool))),
    st.just(RatExpr.const(0)),
    st.sampled_from(["(1+m)/(1-m)", "1/(1-m)", "x/(1-m)", "(2*x)/(1-m)"]
                    ).map(parse_expr),
)


def _general_add(a, b, sign=1):
    """Sum or difference as the fast paths must reproduce it: numerators
    added over an equal denominator, otherwise cross-multiplied."""
    bn = b.num if sign > 0 else -b.num
    if a.den.terms == b.den.terms:
        return RatExpr(a.num + bn, a.den)
    return RatExpr(a.num * b.den + bn * a.den, a.den * b.den)


@settings(max_examples=80, deadline=None)
@given(operands, operands, st.integers(min_value=-2, max_value=3))
def test_every_result_keeps_the_denominator_invariant(a, b, k):
    results = [a, b, a + b, a - b, a * b, -a, 2 + a, 2 - a, 2 * a,
               parse_expr(str(a)), parse_expr(str(b))]
    if not b.is_zero:
        results += [a / b, 1 / b]
    if k >= 0 or not a.is_zero:
        results.append(a ** k)
    for binding in ({"x": b}, {"x": RatExpr.const(0)}, {"m": a}):
        try:
            results.append(a.substitute(binding))
        except DenominatorVanishes:
            pass
    assert all(_den_ok(e) for e in results)


@settings(max_examples=80, deadline=None)
@given(operands, operands)
def test_fast_paths_match_the_general_formula(a, b):
    for fast, general in ((a + b, _general_add(a, b)),
                          (a - b, _general_add(a, b, -1)),
                          (a * b, RatExpr(a.num * b.num, a.den * b.den))):
        assert fast == general
        assert str(fast) == str(general)


def test_zero_operand_returns_the_other_unchanged():
    zero, q = RatExpr.const(0), parse_expr("(1+m)/(1-m)")
    assert q + zero is q and zero + q is q and q - zero is q
    assert str(zero - q) == "(-1 - m)/(1 - m)"
    assert str(q * RatExpr.const(1)) == str(q)


@settings(max_examples=80, deadline=None)
@given(operands)
def test_a_zero_operand_returns_the_other_operand(x):
    # the residual sums (algebra.signed_sum) skip zero terms on this rule;
    # with both operands zero either one is the other
    for got in (RE_ZERO + x, x + RE_ZERO, x - RE_ZERO):
        assert got is x or got.is_zero and x.is_zero
    assert str(RE_ZERO - x) == str(-x)
    assert (RE_ZERO - x).den is (-x).den


def test_copies_keep_the_shared_denominator():
    for text in ("x + 1", "0", "3/2*i", "(1+m)/(1-m)"):
        e = parse_expr(text)
        for again in (copy.copy(e), copy.deepcopy(e),
                      pickle.loads(pickle.dumps(e))):
            assert _den_ok(again)
            assert (again.den is _POLY_ONE) == (e.den is _POLY_ONE)
            assert str(again) == str(e)
            assert str(again + e) == str(e + e)


gaussian = st.one_of(st.builds(Scalar, fracs), scalars)


def _canonical(part):
    """A Scalar part's form: an int exactly when integral, otherwise a
    Fraction, and never a float."""
    return type(part) is int or (type(part) is Fraction
                                 and part.denominator != 1)


@settings(max_examples=80, deadline=None)
@given(gaussian, gaussian)
def test_scalar_product_matches_four_products(a, b):
    want = Scalar(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    for got in (a * b, b * a):
        assert got == want
        assert _canonical(got.re) and _canonical(got.im)
        assert repr(got) == repr(want)
        assert str(got) == str(want)


def _same_scalar(got, want):
    assert got == want
    assert _canonical(got.re) and _canonical(got.im)
    assert repr(got) == repr(want)
    assert str(got) == str(want)


@settings(max_examples=80, deadline=None)
@given(gaussian, gaussian)
def test_scalar_sum_difference_and_negation_match_the_general_formula(a, b):
    # the real-only fast paths against the formulas over both parts
    for got in (a + b, b + a):
        _same_scalar(got, Scalar(a.re + b.re, a.im + b.im))
    _same_scalar(a - b, Scalar(a.re - b.re, a.im - b.im))
    _same_scalar(-a, Scalar(-a.re, -a.im))
    for k in (0, 3, Fraction(-2, 5)):
        _same_scalar(a + k, Scalar(a.re + k, a.im))
        _same_scalar(k + a, Scalar(a.re + k, a.im))
        _same_scalar(a - k, Scalar(a.re - k, a.im))
        _same_scalar(k - a, Scalar(k - a.re, -a.im))
        _same_scalar(a * k, Scalar(a.re * k, a.im * k))


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


# --- canonical Scalar parts ----------------------------------------------------

# parts drawn as ints, as integral Fractions and as proper Fractions
parts = st.one_of(st.integers(min_value=-12, max_value=12),
                  fracs, fracs.map(lambda f: Fraction(f.numerator)))
mixed_scalars = st.one_of(st.builds(Scalar, parts),
                          st.builds(Scalar, parts, parts))


def _ref(x):
    """(re, im) of a Scalar or a number as two Fractions."""
    if isinstance(x, Scalar):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def _ref_pow(a, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _same_value_canonical(got, want):
    assert isinstance(got, Scalar)
    assert _canonical(got.re) and _canonical(got.im), repr(got)
    assert (got.re, got.im) == want


@settings(max_examples=200, deadline=None)
@given(mixed_scalars, mixed_scalars,
       st.one_of(st.integers(-4, 4), fracs), st.integers(0, 5))
def test_scalar_parts_stay_canonical_and_exact(a, b, k, e):
    # every operation against a reference computed in Fractions only
    ra, rb, rk = _ref(a), _ref(b), _ref(k)
    checks = [
        (a + b, (ra[0] + rb[0], ra[1] + rb[1])),
        (a - b, (ra[0] - rb[0], ra[1] - rb[1])),
        (a * b, _ref_mul(ra, rb)),
        (-a, (-ra[0], -ra[1])),
        (a ** e, _ref_pow(ra, e)),
        (a + k, (ra[0] + rk[0], ra[1])),
        (k + a, (ra[0] + rk[0], ra[1])),
        (a - k, (ra[0] - rk[0], ra[1])),
        (k - a, (rk[0] - ra[0], -ra[1])),
        (a * k, (ra[0] * rk[0], ra[1] * rk[0])),
        (Scalar(a.re, a.im), ra),
    ]
    if b:
        checks.append((a / b, _ref_div(ra, rb)))
        checks.append((k / b, _ref_div(rk, rb)))
    if k:
        checks.append((a / k, _ref_div(ra, rk)))
    if a:
        checks.append((Scalar(1) / a, _ref_div((Fraction(1), Fraction(0)),
                                               ra)))
    for got, want in checks:
        _same_value_canonical(got, want)


@st.composite
def gaussian_texts(draw):
    """The text of a Gaussian rational constant and its value as two
    Fractions, written as sums, products and quotients of integers."""
    re_n, im_n = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    re_d, im_d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    text = f"({re_n})/({re_d}) + ({im_n})*i/({im_d})"
    return text, (Fraction(re_n, re_d), Fraction(im_n, im_d))


@settings(max_examples=150, deadline=None)
@given(gaussian_texts(), gaussian_texts(), polys())
def test_parsed_and_folded_values_stay_canonical(x, y, num):
    (tx, vx), (ty, vy) = x, y
    # parse_expr: a constant, and a quotient of two (when defined)
    _same_value_canonical(parse_expr(tx).as_scalar(), vx)
    if any(vy):
        _same_value_canonical(parse_expr(f"({tx})/({ty})").as_scalar(),
                              _ref_div(vx, vy))
    # the constant-denominator fold of RatExpr.__init__ scales the
    # numerator by 1/c, term by term
    if any(vy):
        c = Scalar(*vy)
        folded = RatExpr(num, Poly.const(c))
        assert folded.den is _POLY_ONE
        inv = _ref_div((Fraction(1), Fraction(0)), vy)
        assert set(folded.num.terms) == set(num.terms)
        for m, coef in folded.num.terms.items():
            _same_value_canonical(coef, _ref_mul(_ref(num.terms[m]), inv))


def _poly_parts(poly):
    for c in poly.terms.values():
        yield c.re
        yield c.im


def _expr_parts(e):
    yield from _poly_parts(e.num)
    yield from _poly_parts(e.den)


def test_catalog_charts_and_residuals_have_canonical_parts():
    from leibnizalg.algebra import catalog_map, leibniz_residual
    from leibnizalg.compat import mixed_residual
    from leibnizalg.operators import (KIND_NAMES, load_families, make_kind,
                                      operator_residual, unknown_matrix)
    cmap = catalog_map()
    exprs = [e for t in cmap.values() for plane in t.c for row in plane
             for e in row]
    for kind in KIND_NAMES:
        for fam in load_families(kind):
            if not fam.malformed:
                exprs += [e for row in fam.chart for e in row]
                exprs += fam.constraints
    # one residual per kind, walked in full: L20 carries (1 + mu)/(1 - mu)
    table = cmap["L20"]
    for kind in (make_kind(k) for k in KIND_NAMES):
        exprs += [v for _, v in operator_residual(
            table, kind, unknown_matrix(4, kind.name)).walk()]
    exprs += [v for _, v in leibniz_residual(table).walk()]
    exprs += [v for _, v in mixed_residual(table, cmap["L4"]).walk()]
    got = [part for e in exprs for part in _expr_parts(e)]
    assert got and all(_canonical(part) for part in got)
    # the catalog's coefficients are mostly integers
    assert any(type(part) is int and part not in (0, 1) for part in got)
