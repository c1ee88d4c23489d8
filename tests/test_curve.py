import random
from collections import Counter

import pytest

from syzcover.curve import (
    CurveContext,
    CurvePoint,
    CurvePolynomial,
    _first_unit,
    _sqrt_mod,
    curve_cone_points,
    norm_root,
    on_curve,
    random_curve_points,
)
from syzcover.formal import FormalPolynomial
from syzcover.gf import GF, FieldElement, make_extension_field, power, prime_factors
from syzcover.matrices import adjugate, det, mat, mat_mul
from syzcover.oracle import PointOracle


@pytest.fixture
def quartic():
    return CurveContext(3)  # u^4 + v^4 = w^4 over F_3


def random_poly(ctx, rng, nterms=4, maxexp=None):
    maxexp = maxexp or 2 * (ctx.p + 1)
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        key = (rng.randrange(maxexp), rng.randrange(maxexp), rng.randrange(maxexp))
        terms[key] = rng.randrange(1, ctx.p)
    return CurvePolynomial(ctx, terms)


def _field_pair(ctx, rng):
    field = make_extension_field(ctx.p, 2)
    return field.from_index(rng.randrange(1, field.order)), field.random_element(rng)


def _polynomial_pair(ctx, rng):
    return random_poly(ctx, rng), random_poly(ctx, rng)


def _fraction_pair(ctx, rng):
    f, g = _polynomial_pair(ctx, rng)
    return ctx.fraction(f, rng.randrange(3), rng.randrange(3)), ctx.fraction(g, 1, 2)


def _formal_pair(ctx, rng):
    return tuple(
        FormalPolynomial(ctx, ("a", "b"), {(1, 0): x, (0, 2): random_poly(ctx, rng), (0, 0): 1})
        for x in _fraction_pair(ctx, rng)
    )


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize(
    "make_pair",
    (_field_pair, _polynomial_pair, _fraction_pair, _formal_pair),
    ids=("FieldElement", "CurvePolynomial", "CurveFraction", "FormalPolynomial"),
)
def test_ring_types_derive_the_shared_operators(make_pair, p):
    """-, the reflected +, - and *, and truth, which every ring type takes
    from RingElement, agree with its own +, unary - and *; a slotted type
    keeps no __dict__."""
    ctx = CurveContext(p)
    x, y = make_pair(ctx, random.Random(p))
    assert x - y == x + (-y)
    assert type(3 - x) is type(x) and 3 - x == -x + 3 and (3 - x) + x == 3
    assert 2 + x == x + 2
    assert 2 * x == x * 2 == x + x
    for z in (x, y, x - x, 0 * y):
        assert bool(z) == (not z.is_zero())
    assert not x - x
    with pytest.raises(TypeError):
        x - "1"
    with pytest.raises(TypeError):
        "1" - x
    assert not hasattr(x, "__dict__")


def test_normal_form_single_rewrite(quartic):
    w4 = quartic.monomial(1, (0, 0, 4))
    assert w4.terms == {(4, 0, 0): 1, (0, 4, 0): 1}


def test_normal_form_identity_case(quartic):
    w3 = quartic.monomial(1, (0, 0, 3))
    assert w3.terms == {(0, 0, 3): 1}


def test_normal_form_two_rewrites(quartic):
    # w^8 -> (u^4 + v^4)^2 = u^8 + 2 u^4 v^4 + v^8
    w8 = quartic.monomial(1, (0, 0, 8))
    assert w8.terms == {(8, 0, 0): 1, (4, 4, 0): 2, (0, 8, 0): 1}


def test_normal_form_idempotent(rng, quartic):
    for _ in range(100):
        f = random_poly(quartic, rng, maxexp=12)
        again = CurvePolynomial(quartic, dict(f.terms))
        assert again == f


def test_add_zero_is_identity(rng, quartic):
    f = random_poly(quartic, rng)
    assert f + quartic.zero() == f


def test_product_of_monomials(quartic):
    u, v, w = quartic.variables()
    assert (u * u) * (v * v) == quartic.monomial(1, (2, 2, 0))


def test_w2_squared_reduces(quartic):
    u, v, w = quartic.variables()
    w2 = w * w
    assert (w2 * w2).terms == {(4, 0, 0): 1, (0, 4, 0): 1}
    # cross-check by evaluation at all curve points over F_9
    F9 = make_extension_field(3, 2)
    expected = quartic.monomial(1, (4, 0, 0)) + quartic.monomial(1, (0, 4, 0))
    for pt in curve_cone_points(quartic, F9):
        pt = CurvePoint(quartic, pt)
        assert (w2 * w2).evaluate(pt) == expected.evaluate(pt)


def test_p_power_char_p_binomial(quartic):
    u, v, w = quartic.variables()
    assert (u + v).p_power() == u ** 3 + v ** 3


def test_p_power_reduces(quartic):
    u, v, w = quartic.variables()
    got = (w * w).p_power()  # w^6 = (u^4 + v^4) w^2
    assert got.terms == {(4, 0, 2): 1, (0, 4, 2): 1}


@pytest.mark.parametrize("p", (3, 5))
def test_pow_equals_repeated_product(rng, p):
    ctx = CurveContext(p)
    for _ in range(3):
        f = random_poly(ctx, rng, nterms=3, maxexp=3)
        for n in (0, 1, 2, 3, 4, 7, 8, p - 1, p, p + 1):
            acc = ctx.one()
            for _ in range(n):
                acc = acc * f
            assert (f ** n).terms == acc.terms
    assert (ctx.zero() ** 0) == ctx.one()


@pytest.mark.parametrize("p", (3, 5, 13))
def test_monomial_power_equals_square_and_multiply(p):
    """A single term raised in one step equals square-and-multiply of normal
    forms, also where n*k wraps w past e (and past several multiples of e);
    a constant and the zero polynomial agree too."""
    ctx = CurveContext(p)
    e = ctx.p + 1
    bases = [
        ctx.monomial(c, exps)
        for c, exps in (
            (1, (1, 0, 0)), (2, (0, 1, 0)), (p - 1, (0, 0, 1)), (3, (2, 1, e - 1)),
            (1, (0, 0, e - 2)), (p - 2, (1, 3, 2)),
        )
    ]
    bases += [ctx.const(2), ctx.const(p - 1), ctx.zero()]
    for f in bases:
        for n in (0, 1, 2, p - 1, p, p + 1, 2 * p + 3):
            assert (f ** n).terms == power(f, n, ctx.one()).terms, (f, n)


def test_p_power_agrees_with_repeated_multiplication(rng):
    for p in (3, 5):
        ctx = CurveContext(p)
        for _ in range(50):
            f = random_poly(ctx, rng, maxexp=p + 2)
            by_mult = ctx.one()
            for _ in range(p):
                by_mult = by_mult * f
            assert f.p_power() == by_mult


def test_homogeneous_products(rng):
    ctx = CurveContext(5)
    for _ in range(50):
        d1, d2 = rng.randrange(1, 6), rng.randrange(1, 6)
        f = _random_homogeneous(ctx, rng, d1)
        g = _random_homogeneous(ctx, rng, d2)
        prod = f * g
        if prod.is_zero():
            continue
        assert prod.homogeneous_degree() is not None
        assert prod.homogeneous_degree() == d1 + d2


def _random_homogeneous(ctx, rng, degree):
    terms = {}
    for _ in range(3):
        i = rng.randrange(degree + 1)
        j = rng.randrange(degree - i + 1)
        terms[(i, j, degree - i - j)] = rng.randrange(1, ctx.p)
    return CurvePolynomial(ctx, terms)


def test_fraction_equality_common_factor(quartic):
    v2 = quartic.monomial(1, (0, 2, 0))
    left = quartic.fraction(v2, 1, 1)  # v^2/(u w)
    right = quartic.fraction(v2 * quartic.monomial(1, (1, 0, 0)), 2, 1)
    assert left == right


def test_fraction_equality_defining_relation(quartic):
    lhs = quartic.fraction(quartic.monomial(1, (0, 0, 4)))
    rhs = quartic.fraction(
        quartic.monomial(1, (4, 0, 0)) + quartic.monomial(1, (0, 4, 0))
    )
    assert lhs == rhs


def test_fraction_inequality_detected_by_evaluation(quartic):
    w_over_u = quartic.fraction(quartic.monomial(1, (0, 0, 1)), 1, 0)
    v_over_u = quartic.fraction(quartic.monomial(1, (0, 1, 0)), 1, 0)
    assert w_over_u != v_over_u
    F9 = make_extension_field(3, 2)
    rng = random.Random(7)
    pts = [CurvePoint(quartic, pt) for pt in random_curve_points(F9, 20, rng)]
    assert any(w_over_u.evaluate(pt) != v_over_u.evaluate(pt) for pt in pts)


def test_fraction_arithmetic_reduction(quartic):
    u, v, w = quartic.variables()
    x = quartic.fraction(v * v, 1, 1)
    y = quartic.fraction(w, 1, 0)
    s = x + y
    # v^2/(uw) + w/u = (v^2 + w^2)/(uw)
    assert s == quartic.fraction(v * v + w * w, 1, 1)
    prod = x * y  # v^2 w / (u^2 w) = v^2 / u^2
    assert prod == quartic.fraction(v * v, 2, 0)
    assert prod == quartic.fraction(v * v * w, 2, 1)  # unreduced spelling


def test_fraction_p_power(quartic):
    v2_uw = quartic.fraction(quartic.monomial(1, (0, 2, 0)), 1, 1)
    cubed = v2_uw.p_power()
    assert cubed == v2_uw * v2_uw * v2_uw


def test_evaluate_rejects_off_curve_point(quartic):
    F3 = make_extension_field(3)
    with pytest.raises(ValueError, match="does not lie on the curve u\\^4"):
        CurvePoint(quartic, (F3(1), F3(1), F3(1)))
    F5 = make_extension_field(5)
    with pytest.raises(ValueError, match="characteristic"):
        CurvePoint(quartic, (F5(1), F5(0), F5(1)))


def test_evaluate_on_curve_point(quartic):
    F3 = make_extension_field(3)
    assert on_curve(quartic, (F3(1), F3(0), F3(1)))
    pt = CurvePoint(quartic, (F3(1), F3(0), F3(1)))
    rel = (
        quartic.monomial(1, (4, 0, 0))
        + quartic.monomial(1, (0, 4, 0))
        - quartic.monomial(1, (0, 0, 4))
    )
    assert rel.evaluate(pt).is_zero()
    assert quartic.one().evaluate(pt) == F3.one


def _verify_13():
    from syzcover.report import run_verification

    assert run_verification(13, ("lemmas", "cover")).overall == "pass"


def _products_made_by(monkeypatch, method, nested_methods, run=_verify_13):
    """Factor pairs of the FieldElement products that method (a (class, name)
    pair) makes itself during run() (by default a passing
    `run_verification(13, ("lemmas", "cover"))`), not counting those made
    inside any of nested_methods."""
    depth = {"outer": 0, "inner": 0}
    factors = []

    def nested(key, fn):
        def wrapper(*args):
            depth[key] += 1
            try:
                return fn(*args)
            finally:
                depth[key] -= 1

        return wrapper

    mul = FieldElement.__mul__

    def counted(self, other):
        if depth["outer"] and not depth["inner"]:
            factors.append((self, other))
        return mul(self, other)

    cls, name = method
    monkeypatch.setattr(cls, name, nested("outer", getattr(cls, name)))
    for cls, name in nested_methods:
        monkeypatch.setattr(cls, name, nested("inner", getattr(cls, name)))
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    run()
    return factors


def test_evaluate_multiplies_by_no_factor_equal_to_one(monkeypatch):
    """In `run_verification(13, ("lemmas", "cover"))`, no product that
    CurvePolynomial.evaluate makes has a factor equal to one: a zero
    exponent, a coordinate or power equal to one and a coefficient 1 are
    all skipped.  Products inside a memo's `**` belong to the power and are
    not counted here."""
    factors = _products_made_by(
        monkeypatch, (CurvePolynomial, "evaluate"), [(FieldElement, "__pow__")]
    )
    assert factors
    assert [(x, y) for x, y in factors if x == 1 or y == 1] == []


def test_fraction_evaluate_multiplies_by_no_factor_equal_to_one(monkeypatch):
    """CurvePolynomial.evaluate over a denominator u^du w^dw multiplies by
    no power of a coordinate or of its inverse that is one, and takes each
    coordinate's inverse at most once per point.  Evaluated are the 8 H
    entries at p = 13 at the oracle's points of the degree-14 curve, and the
    chart-U ones also at the w = 0 points scaled by 2 and by t (the w = 0
    check's own points have u0 = 1, where every such power is one).
    Products inside a memo's `**` or inverse are not counted here."""
    from syzcover.cover import _w0_points, build_cover_data

    cd, field = build_cover_data(13), make_extension_field(13, 2)
    ctx, h_u, h_w = cd.ctx, cd.H_U, cd.H_W
    sampled = PointOracle(ctx).points
    scaled = [
        CurvePoint(ctx, tuple(lam * x for x in pt))
        for lam in (field.from_index(2), field.from_index(13))
        for pt in _w0_points(ctx, 14)
    ]
    assert all(h.du or h.dw for h in h_u[0] + h_u[1] + h_w[0] + h_w[1])
    inverted, inverse = [], FieldElement.inverse

    def counted_inverse(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted_inverse)
    taken = []

    def run():
        for points, entries in ((sampled, h_u[0] + h_u[1] + h_w[0] + h_w[1]), (scaled, h_u[0] + h_u[1])):
            for pt in points:
                before = len(inverted)
                for h in entries:
                    h.evaluate(pt)
                taken.append((pt, len(inverted) - before))

    factors = _products_made_by(
        monkeypatch,
        (CurvePolynomial, "evaluate"),
        [(FieldElement, "__pow__"), (FieldElement, "inverse")],
        run,
    )
    # each product is (a memoized power) * (a coefficient, or the value so
    # far, which is one at a few of the oracle's points); only the power and
    # a coefficient 1 are skipped when they are one
    assert [(x, y) for x, y in factors if x == 1 or isinstance(y, int) and y == 1] == []
    assert sum(n for _, n in taken) > 0
    for pt, n in taken:
        assert n <= sum((axis, -1) in pt.powers for axis in range(3))
    # the denominator's factors are the memo's own powers of 1/u0 and 1/w0
    inverse_powers = {id(x) for pt, _ in taken for (_, e), x in pt.powers.items() if e < 0}
    assert any(id(x) in inverse_powers for x, _ in factors)


def test_evaluate_skips_terms_a_zero_coordinate_kills(monkeypatch, rng):
    """At a point with a zero coordinate, a term in which that coordinate has
    a positive exponent is skipped and makes no pow; across all 20
    polynomials each distinct (coordinate, exponent) of a live term is
    raised at most once per point; and the value is the sum over every term."""
    from syzcover.cover import _w0_points

    ctx = CurveContext(5)
    F = make_extension_field(5, 2)
    points = [*_w0_points(ctx, 4), CurvePoint(ctx, (F.one, F.zero, F.one))]
    polys = [random_poly(ctx, rng, nterms=8) for _ in range(20)]
    expected = []
    for pt in points:
        u0, v0, w0 = pt
        live = set()
        for f in polys:
            value = F.zero
            for (i, j, k), c in f.terms.items():
                value = value + (u0 ** i) * (v0 ** j) * (w0 ** k) * c
            expected.append(value)
            for e in f.terms:
                if not any(x and z.is_zero() for x, z in zip(e, (u0, v0, w0))):
                    live.update(enumerate(e))
        # at most one pow per distinct live (coordinate, exponent), none at a killed one
        expected.append(Counter((pt.coords[axis].coeffs, e) for axis, e in live))
    pows = []
    power = FieldElement.__pow__

    def counted(self, e):
        pows.append((self.coeffs, e))
        return power(self, e)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    values = iter(expected)
    for pt in points:
        pows.clear()
        for f in polys:
            assert f.evaluate(pt) == next(values)
        assert Counter(pows) <= next(values)


def test_evaluation_is_multiplicative(rng, quartic):
    F9 = make_extension_field(3, 2)
    pts = [CurvePoint(quartic, pt) for pt in random_curve_points(F9, 10, rng)]
    for _ in range(20):
        f = random_poly(quartic, rng)
        g = random_poly(quartic, rng)
        for pt in pts:
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_curve_points_small_field(quartic):
    F3 = make_extension_field(3)
    pts = curve_cone_points(quartic, F3)
    as_ints = {tuple(c.index for c in pt) for pt in pts}
    assert (1, 0, 1) in as_ints
    assert (0, 1, 1) in as_ints
    assert all(any(t) for t in as_ints)


def test_cone_point_count_matches_cube_scan():
    ctx = CurveContext(5)
    F25 = make_extension_field(5, 2)
    pts = curve_cone_points(ctx, F25)
    brute = 0
    for a in F25.elements():
        a6 = a ** 6
        for b in F25.elements():
            s = a6 + b ** 6
            for c in F25.elements():
                if (not (a.is_zero() and b.is_zero() and c.is_zero())) and s == c ** 6:
                    brute += 1
    assert len(pts) == brute


def test_random_curve_points_deterministic():
    F9 = make_extension_field(3, 2)
    a = random_curve_points(F9, 20, random.Random(3))
    b = random_curve_points(F9, 20, random.Random(3))
    assert a == b
    assert len(set((p[0].index, p[1].index, p[2].index) for p in a)) == 20


def test_rendering(quartic):
    u, v, w = quartic.variables()
    assert str(u * u + 2 * v) == "u^2 + 2*v"
    assert str(quartic.fraction(v * v, 1, 1)) == "v^2/(u*w)"
    assert str(quartic.zero()) == "0"


def test_context_mismatch_rejected():
    a = CurveContext(3)
    b = CurveContext(5)
    with pytest.raises(ValueError):
        a.one() + b.one()
    with pytest.raises(ValueError):
        a.fraction(1, 1, 0) + b.fraction(1, 1, 0)
    with pytest.raises(ValueError):
        a.fraction(b.one())
    with pytest.raises(ValueError):
        FormalPolynomial.constant(a, ("x",), b.fraction(1, 1, 0))
    with pytest.raises(ValueError):
        FormalPolynomial.variable(a, ("x",), "x") + FormalPolynomial.variable(b, ("x",), "x")
    # equal contexts that are distinct objects still combine
    a, b = CurveContext(5), CurveContext(5)
    assert a is not b and a == b
    assert a.one() + b.one() == a.const(2)
    assert a.one() == b.one()
    assert a.fraction(1, 1, 0) + b.fraction(1, 1, 0) == a.fraction(2, 1, 0)
    assert a.fraction(b.one()) == b.fraction(1)
    x_a = FormalPolynomial.variable(a, ("x",), "x")
    x_b = FormalPolynomial.variable(b, ("x",), "x")
    assert x_a + x_b == 2 * FormalPolynomial.variable(a, ("x",), "x")


def _numerator(x):
    """x's numerator as a polynomial."""
    return CurvePolynomial(x.ctx, x.terms)


def _cleared_numerators(x, y):
    """Both numerators over the common denominator u^(x.du + y.du) w^(x.dw + y.dw)."""
    ctx = x.ctx
    return (
        _numerator(x) * ctx.monomial(1, (y.du, 0, y.dw)),
        _numerator(y) * ctx.monomial(1, (x.du, 0, x.dw)),
    )


def _random_fraction(ctx, rng):
    num = random_poly(ctx, rng, nterms=3, maxexp=6)
    return ctx.fraction(num, rng.randrange(4), rng.randrange(4))


@pytest.mark.parametrize("p", (3, 5))
def test_fraction_sum_and_equality_match_cross_multiplication(p):
    ctx = CurveContext(p)
    rng = random.Random(p)
    for trial in range(60):
        x, y = _random_fraction(ctx, rng), _random_fraction(ctx, rng)
        if trial % 4 == 0:
            x = _numerator(x)
        if trial % 3 == 0:
            y = _numerator(y)
        if trial % 5 == 0:  # an equal fraction written with a larger denominator
            y = ctx.fraction(_numerator(x) * ctx.monomial(1, (1, 0, 2)), x.du + 1, x.dw + 2)
        left, right = _cleared_numerators(x, y)
        assert (x == y) == (left == right)
        total = x + y
        reference = ctx.fraction(left + right, x.du + y.du, x.dw + y.dw)
        lhs, rhs = _cleared_numerators(total, reference)
        assert lhs == rhs
        # the stored form is the one over the least common denominator
        du, dw = max(x.du, y.du), max(x.dw, y.dw)
        lcd = ctx.fraction(
            _numerator(x) * ctx.monomial(1, (du - x.du, 0, dw - x.dw))
            + _numerator(y) * ctx.monomial(1, (du - y.du, 0, dw - y.dw)),
            du,
            dw,
        )
        assert (total.terms, total.du, total.dw) == (lcd.terms, lcd.du, lcd.dw)


def test_fraction_of_a_polynomial_is_that_polynomial():
    """ctx.fraction(f) over the denominator 1 is f's own type, with f's
    terms and text, and so is every sum and product of such elements."""
    ctx = CurveContext(5)
    u, v, w = ctx.variables()
    for f in (u * u + 2 * v * w, w ** 6, ctx.zero(), ctx.const(3)):
        g = ctx.fraction(f)
        assert type(g) is type(f) is CurvePolynomial
        assert (g.terms, g.du, g.dw, str(g)) == (f.terms, 0, 0, str(f))
        assert type(g * u + g) is CurvePolynomial
    assert ctx.fraction(u * v, 1, 0) == v and str(ctx.fraction(u * v, 1, 0)) == "v"


def test_matrix_adjugate_contract(rng, quartic):
    for _ in range(25):
        entries = [
            [
                quartic.fraction(
                    random_poly(quartic, rng, nterms=2, maxexp=3),
                    rng.randrange(2),
                    rng.randrange(2),
                )
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        M = mat(entries)
        d = det(M)
        prod = mat_mul(M, adjugate(M))
        assert prod[0][0] == d and prod[1][1] == d
        assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_adjugate_field_entries(rng):
    """M adj(M) = adj(M) M = det(M) I over GF(7) for n = 2, 3, singular M included."""
    F = make_extension_field(7)
    for n in (2, 3):
        for _ in range(25):
            M = mat([[F.random_element(rng) for _ in range(n)] for _ in range(n)])
            d = det(M)
            scalar = mat([[d if i == j else F.zero for j in range(n)] for i in range(n)])
            assert mat_mul(M, adjugate(M)) == scalar
            assert mat_mul(adjugate(M), M) == scalar


def test_identity_matrix_det(quartic):
    one = quartic.fraction(1)
    zero = quartic.fraction(0)
    assert det(mat([[one, zero], [zero, one]])) == one


# the sampler serves e = p + 1 only; the test ids keep naming the degree
SAMPLER_IDS = "e=p+1-{}".format


@pytest.mark.parametrize("p", (13, 47), ids=SAMPLER_IDS)
def test_random_curve_points_contract(p):
    ctx = CurveContext(p)
    field = make_extension_field(p, 2)
    pts = random_curve_points(field, 20, random.Random(7))
    assert all(on_curve(ctx, pt) for pt in pts)
    assert len({tuple(c.index for c in pt) for pt in pts}) == 20
    assert all(not pt[0].is_zero() and not pt[2].is_zero() for pt in pts)
    assert pts == random_curve_points(field, 20, random.Random(7))


def test_random_curve_points_lie_in_reference_cone():
    ctx = CurveContext(13)
    field = make_extension_field(13, 2)
    cone = {tuple(c.index for c in pt) for pt in curve_cone_points(ctx, field)}
    pts = random_curve_points(field, 50, random.Random(1))
    assert {tuple(c.index for c in pt) for pt in pts} <= cone


def test_random_curve_points_exhausted_raises_plain_value_error():
    # over GF(9), u^4 and v^4 are norms in {0, 1, 2}: of the 8 * 9 pairs with
    # u != 0, the 8 * 4 with u^4 + v^4 = 0 have no root w, the other 40 have one
    F9 = make_extension_field(3, 2)
    assert len(random_curve_points(F9, 40, random.Random(0))) == 40
    with pytest.raises(ValueError) as info:
        random_curve_points(F9, 41, random.Random(0))
    assert type(info.value) is ValueError


def _direct_value(f, point):
    u0, v0, w0 = point
    value = u0.field.zero
    for (i, j, k), c in f.terms.items():
        value = value + (u0 ** i) * (v0 ** j) * (w0 ** k) * c
    return value


def _memo_test_points(ctx, field, rng):
    """Sampled points (u0, w0 != 0; over the prime field drawn from the cone),
    points with v0 = 0 or u0 = 0, and, over GF(p^2), points with w0 = 0;
    all checked on ctx."""
    from syzcover.cover import _w0_points

    e = ctx.p + 1
    units = [x for x in field.elements() if not x.is_zero()]
    if field.m == 2:
        sampled = random_curve_points(field, 2, rng)
    else:  # the sampler serves GF(p^2) only; the cone reference covers the prime field
        cone = curve_cone_points(ctx, field)
        sampled = rng.sample([pt for pt in cone if not (pt[0].is_zero() or pt[2].is_zero())], 2)
    pts = [CurvePoint(ctx, pt) for pt in sampled]
    roots_of_one = [x for x in units if x ** e == field.one]
    pts += [CurvePoint(ctx, (x, field.zero, x * z)) for x in units[:2] for z in roots_of_one[-2:]]
    pts += [CurvePoint(ctx, (field.zero, field.one, z)) for z in roots_of_one[-2:]]
    if field.m == 2:
        pts += _w0_points(ctx, 3)
    return pts


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("p", (3, 5, 13))
def test_memoized_evaluation_equals_the_direct_formula(p, m):
    """Curve polynomials, fractions with du, dw > 0 and formal polynomials,
    each evaluated several times at one CurvePoint (so the memo both fills
    and hits), equal the sum of u0^i v0^j w0^k c and num u0^-du w0^-dw;
    the zero normal form of each type is the field's zero."""
    ctx = CurveContext(p)
    field = make_extension_field(p, m)
    rng = random.Random(100 * p + m)
    polys = [random_poly(ctx, rng, nterms=6) for _ in range(6)]
    fracs = [ctx.fraction(f + 1, rng.randrange(1, 4), rng.randrange(1, 4)) for f in polys]
    assert all(frac.du and frac.dw for frac in fracs)
    names = ("a", "b")
    formal = FormalPolynomial(
        ctx, names, {(1, 0): fracs[0], (2, 1): fracs[1], (0, 3): polys[2], (0, 0): 5}
    )
    zeros = (ctx.zero(), ctx.fraction(0, 2, 3), FormalPolynomial(ctx, names, {}))
    for pt in _memo_test_points(ctx, field, rng):
        (u0, _, w0), (zu, _, zw) = pt.coords, pt.zeros
        assert pt.zeros == tuple(x.is_zero() for x in pt.coords)
        assignment = {name: field.random_element(rng) for name in names}
        for _ in range(2):
            for f in polys:
                assert f.evaluate(pt) == _direct_value(f, pt)
            for frac in fracs:
                if (frac.du and zu) or (frac.dw and zw):
                    with pytest.raises(ZeroDivisionError):
                        frac.evaluate(pt)
                else:
                    direct = _direct_value(frac, pt) * u0 ** -frac.du * w0 ** -frac.dw
                    assert frac.evaluate(pt) == direct
            if not (zu or zw):
                direct = field.zero
                for exps, coeff in formal.terms.items():
                    term = _direct_value(coeff, pt) * u0 ** -coeff.du * w0 ** -coeff.dw
                    for name, k in zip(names, exps):
                        term = term * assignment[name] ** k
                    direct = direct + term
                assert formal.evaluate(assignment, pt) == direct
            assert zeros[0].evaluate(pt) == field.zero
            assert zeros[1].evaluate(pt) == field.zero
            assert zeros[2].evaluate(assignment, pt) == field.zero


def test_checked_point_of_another_context_is_rejected(quartic):
    """A point checked on the curve of p = 3 is refused by every evaluate of
    the curves of p = 5 and 7, whose equations its coordinates satisfy too;
    the zero of each type, which reads no coordinate, refuses it as well."""
    F3 = make_extension_field(3)
    point = CurvePoint(quartic, (F3(1), F3(0), F3(1)))
    for other in (CurveContext(5), CurveContext(7)):
        assert on_curve(other, point.coords)
        with pytest.raises(ValueError, match="different curve"):
            other.one().evaluate(point)
        with pytest.raises(ValueError, match="different curve"):
            other.fraction(other.one(), 1, 0).evaluate(point)
        for zero in (other.zero(), other.fraction(0)):
            with pytest.raises(ValueError, match="different curve"):
                zero.evaluate(point)
        with pytest.raises(ValueError, match="different curve"):
            FormalPolynomial(other, ("a",), {}).evaluate({"a": F3.one}, point)
    assert quartic.one().evaluate(point) == F3.one


# 1 mod 8 (the Tonelli-Shanks loop runs), then 3 mod 4 (it does not)
SQRT_PRIMES = (17, 41, 73, 97, 113, 193, 3, 7, 11, 19, 23, 103)


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_sqrt_mod_matches_brute_force(p):
    """Every square c mod p, 0 included, gets one of its square roots."""
    roots = {}
    for x in range(p):
        roots.setdefault(x * x % p, set()).add(x)
    for c, expected in roots.items():
        assert _sqrt_mod(c, p) in expected, c


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101, 103))
def test_norm_root_gives_the_pow_scan_roots(p):
    """For every c != 0 in F_p, root(c, j) for j < p + 1 is each x in GF(p^2)
    with x ** (p + 1) == c exactly once; c = 0 gives its one root 0."""
    field = make_extension_field(p, 2)
    scan = {}
    for k in range(1, p * p):
        scan.setdefault((field.from_index(k) ** (p + 1)).coeffs, []).append(k)
    root = norm_root(field)
    for c in range(1, p):
        assert sorted(root(c, j).index for j in range(p + 1)) == scan[c, 0], c
    assert sum(len(ks) for ks in scan.values()) == (p - 1) * (p + 1) == p * p - 1
    assert root(0, 0) == root(0, p) == field.zero


@pytest.mark.parametrize("p", (3, 5, 7, 13, 101, 1009, 2003, 10007, 100003, 1000003))
def test_zeta_has_order_p_plus_1(p):
    """zeta = root(1, 1) (r = 1 for c = 1) has order exactly p + 1."""
    field = make_extension_field(p, 2)
    zeta = norm_root(field)(1, 1)
    assert zeta ** (p + 1) == field.one
    assert all(zeta ** ((p + 1) // ell) != field.one for ell in prime_factors(p + 1))


@pytest.mark.parametrize("p", (7, 13))
def test_norm_root_raises_only_value_error(p):
    """Under each single-entry corruption of the Frobenius matrix, every root
    is made or refused with ValueError; an exhausted search is a ValueError too."""
    field = make_extension_field(p, 2)
    columns = field.frobenius_columns()
    refused = 0
    try:
        for i in range(2):
            for j in range(2):
                bad = [list(col) for col in columns]
                bad[i][j] = (bad[i][j] + 1) % p
                field._frobenius = tuple(tuple(col) for col in bad)
                root = norm_root(field)
                for c in range(1, p):
                    try:
                        root(c, 0)
                    except ValueError:
                        refused += 1
    finally:
        field._frobenius = columns
    assert refused
    with pytest.raises(ValueError, match="no x = a \\+ t in GF\\(7\\^2\\) has nothing"):
        _first_unit(make_extension_field(7, 2), lambda x: False, "nothing")


def _norm_by_pow(x):
    """N(x) = x ** (p + 1) as an int, with no Frobenius matrix."""
    n0, n1 = (x ** (x.field.p + 1)).coeffs
    assert not n1
    return n0


def _check_w0(points):
    """Each w0 solves w0 ** (p + 1) == N(u0) + N(v0), the norms taken by pow."""
    for u0, v0, w0 in points:
        assert _norm_by_pow(w0) == (_norm_by_pow(u0) + _norm_by_pow(v0)) % u0.field.p


def _table_sampler_reference(field, count, rng):
    """The table sampler that random_curve_points was until it solved norms:
    the same draws, completed from a table of the pow norms over all of the
    field; (u0, v0) pairs only, since the roots are listed in another order."""
    order, p = field.order, field.p
    elements = list(field.elements())
    norms = [_norm_by_pow(x) if k else 0 for k, x in enumerate(elements)]
    roots = Counter(norms[1:])
    total = (order - 1) * order
    swapped = {}
    pairs = []
    for drawn in range(total):
        if len(pairs) == count:
            break
        pick = rng.randrange(drawn, total)
        pair = swapped.get(pick, pick)
        swapped[pick] = swapped.get(drawn, drawn)
        ui, vi = 1 + pair // order, pair % order
        candidates = roots[(norms[ui] + norms[vi]) % p]
        if not candidates:
            continue
        rng.randrange(candidates)
        pairs.append((elements[ui], elements[vi]))
    return pairs


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101, 103), ids=SAMPLER_IDS)
def test_sampler_matches_table_reference(p):
    """The table sampler's (u0, v0) pairs and the same final rng state, so
    each s it drew for had p + 1 roots in the table; above 13, 101 is 1 mod
    4 and 103 is 3 mod 4."""
    field = make_extension_field(p, 2)
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        pts = random_curve_points(field, 20, rng)
        assert [pt[:2] for pt in pts] == _table_sampler_reference(field, 20, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed
        _check_w0(pts)


def _root_list_sampler_reference(field, count, rng):
    """random_curve_points as it was with a root list per s: the pow norms of
    each drawn pair, and for s != 0 a pick among its p + 1 roots."""
    p, order = field.p, field.order
    total = (order - 1) * order
    swapped, pairs = {}, []
    for drawn in range(total):
        if len(pairs) == count:
            break
        pick = rng.randrange(drawn, total)
        pair = swapped.get(pick, pick)
        swapped[pick] = swapped.get(drawn, drawn)
        u0, v0 = field.from_index(1 + pair // order), field.from_index(pair % order)
        if (_norm_by_pow(u0) + _norm_by_pow(v0)) % p:
            rng.randrange(p + 1)
            pairs.append((u0, v0))
    return pairs


@pytest.mark.parametrize("p", (3, 5, 13, 101, 1009, 2003), ids=SAMPLER_IDS)
def test_sampler_matches_root_list_reference(p):
    """The sampler draws the (u0, v0) pairs and root picks of the one that
    listed every root and drew among them, and leaves rng in the same
    state; 1009 is 1 mod 4 and 2003 is 3 mod 4."""
    field = make_extension_field(p, 2)
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        pts = random_curve_points(field, 20, rng)
        assert [pt[:2] for pt in pts] == _root_list_sampler_reference(field, 20, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed
        _check_w0(pts)


@pytest.mark.parametrize("p", (13, 101, 1000003), ids=SAMPLER_IDS)
def test_sampler_makes_o_log_p_products(monkeypatch, p):
    """20 points cost O(log p) field products and pows each (the row walk it
    replaced made O(p) work per point, the table sampler p^2 products), two
    from_index calls per drawn pair and two Frobenius applications per pair
    plus the one non-square norm search."""
    counts = {"from_index": 0, "frobenius": 0, "pow": 0, "mul": 0}
    from_index, p_power = GF.from_index, FieldElement.p_power
    pow_, mul = FieldElement.__pow__, FieldElement.__mul__

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    field = make_extension_field(p, 2)
    field.frobenius_columns()  # built and certified once per field, with pows of its own
    monkeypatch.setattr(GF, "from_index", counted("from_index", from_index))
    monkeypatch.setattr(FieldElement, "p_power", counted("frobenius", p_power))
    monkeypatch.setattr(FieldElement, "__pow__", counted("pow", pow_))
    monkeypatch.setattr(FieldElement, "__mul__", counted("mul", mul))
    pts = random_curve_points(field, 20, random.Random(0))
    assert len(pts) == 20
    assert counts["from_index"] <= 50
    assert counts["frobenius"] <= counts["from_index"] + 10
    assert counts["pow"] <= 20 + 15
    assert counts["mul"] <= 3 * 20 * p.bit_length()


def test_curve_context_is_a_validated_immutable_value():
    ctx = CurveContext(5)
    assert ctx == CurveContext(5) and hash(ctx) == hash(CurveContext(5))
    assert ctx != CurveContext(7)
    assert repr(ctx) == "CurveContext(p=5)"
    assert CurveContext(p=5) == ctx
    assert {ctx: 1}[CurveContext(5)] == 1
    with pytest.raises(AttributeError):
        ctx.p = 7
    with pytest.raises(ValueError, match="odd prime, got 9"):
        CurveContext(9)
    with pytest.raises(ValueError, match="odd prime, got 2"):
        CurveContext(2)
