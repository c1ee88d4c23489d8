import math
import random
import re

import pytest
from catalog_mutants import flip_sign
from cover_reference import h_matrices, transition_matrix

from syzcover import cover
from syzcover.cover import (
    U_VARS,
    W_VARS,
    build_cover_data,
    check_base_change,
    check_cocycle,
    check_det_periodicity,
    check_gluing,
    check_matrix_ideal_shift,
    check_relations,
    check_section_ring,
    check_transition,
    check_w0_specialization,
)
from syzcover.curve import CurveContext, CurvePoint, CurvePolynomial, random_curve_points
from syzcover.formal import FormalPolynomial, binomial_residues
from syzcover.gf import make_extension_field, power
from syzcover.matrices import (
    adjugate,
    det,
    entrywise_p_power,
    mat,
    mat_mul,
)
from syzcover.oracle import ORACLE_POINTS, OracleSuite
from syzcover.syz import (
    build_catalog,
    check_alpha,
    check_catalog,
    check_independence,
    check_kernel_relation,
)

PRIMES = (3, 5, 7, 11, 13)

ALL_CHECKS = (
    check_transition,
    check_base_change,
    check_cocycle,
    check_relations,
    check_gluing,
    check_section_ring,
    check_det_periodicity,
    check_w0_specialization,
)


@pytest.fixture(scope="module")
def covers():
    return {p: build_cover_data(p) for p in PRIMES}


def test_transition_entries(covers):
    cd = covers[3]
    ctx = cd.ctx
    u, v, w = ctx.variables()
    assert cd.T[0][0] == ctx.fraction(0)
    assert cd.T[0][1] == ctx.fraction(-w, 1, 0)
    assert cd.T[1][0] == ctx.fraction(u, 0, 1)
    assert cd.T[1][1] == ctx.fraction(v * v, 1, 1)
    assert det(cd.T) == ctx.fraction(1)


def test_transition_inverse_frozen(covers):
    cd = covers[3]
    ctx = cd.ctx
    u, v, w = ctx.variables()
    tinv = adjugate(cd.T)  # T^(-1), since det T = 1
    assert tinv[0][0] == ctx.fraction(v * v, 1, 1)
    assert tinv[0][1] == ctx.fraction(w, 1, 0)
    assert tinv[1][0] == ctx.fraction(-u, 0, 1)
    assert tinv[1][1] == ctx.fraction(0)
    prod = mat_mul(cd.T, tinv)
    assert prod[0][0] == ctx.fraction(1) and prod[1][1] == ctx.fraction(1)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_transition_certified(covers, p):
    assert check_transition(covers[p]).ok


def test_h_matrix_entries(covers):
    for p in (3, 7):
        cd = covers[p]
        ctx = cd.ctx
        u, v, w = ctx.variables()
        # (2,1) entry of the u-chart matrix is 1 - v^(p+1)/u^(p+1)
        expected = ctx.fraction(u ** (p + 1) - v ** (p + 1), p + 1, 0)
        assert cd.H_U[1][0] == expected
        assert det(cd.H_U) == ctx.fraction(-2)
        assert det(cd.H_W) == ctx.fraction(-2)


@pytest.mark.parametrize("p", PRIMES)
def test_base_change_certified(covers, p):
    assert check_base_change(covers[p]).ok


@pytest.mark.parametrize("p", (3, 11))
def test_cocycle(covers, p):
    assert check_cocycle(covers[p]).ok


def test_cocycle_detects_transpose(covers):
    cd = covers[3]
    transposed = tuple(tuple(cd.H_W[j][i] for j in range(2)) for i in range(2))
    mutated = cd._replace(H_W=transposed)
    assert not check_cocycle(mutated).ok


@pytest.mark.parametrize("p", (3, 5, 13))
def test_cocycle_mutants(covers, p):
    """Transposing H_W, negating H_U or swapping the rows of T breaks the
    cocycle; 2T does not, because F(cT) = c F(T) for c in F_p, so
    H_U (2T) - F(2T) H_W = 2 (H_U T - F(T) H_W)."""
    cd = covers[p]
    transposed = tuple(zip(*cd.H_W))
    negated = tuple(tuple(-x for x in row) for row in cd.H_U)
    for mutated in (
        cd._replace(H_W=transposed),
        cd._replace(H_U=negated),
        cd._replace(T=(cd.T[1], cd.T[0])),
    ):
        assert not check_cocycle(mutated).ok
    doubled = cd._replace(T=tuple(tuple(2 * x for x in row) for row in cd.T))
    assert check_cocycle(doubled).ok


@pytest.mark.parametrize("p", (3, 5, 13))
def test_singular_transition_fails_without_raising(covers, p):
    """T with both rows T[0] has det 0: check_transition fails it, and
    check_cocycle, which needs no inverse of T, returns a fail too."""
    cd = covers[p]
    singular = cd._replace(T=(cd.T[0], cd.T[0]))
    assert det(singular.T).is_zero()
    assert not check_transition(singular).ok
    assert not check_cocycle(singular).ok


@pytest.mark.parametrize("p", PRIMES)
def test_relations_shape(covers, p):
    out = check_relations(covers[p])
    assert out.ok, out.detail
    assert len(covers[p].relations_U) == 4
    assert len(covers[p].relations_W) == 4


def test_relation_one_explicit_p3(covers):
    cd = covers[3]
    ctx = cd.ctx
    u, v, w = ctx.variables()
    a, b, c, d = (FormalPolynomial.variable(ctx, U_VARS, n) for n in U_VARS)
    clear = ctx.fraction(u ** 4)
    det_a = a * d - b * c
    expected = (a ** 3 * d - c * b ** 3) * clear - det_a * ctx.fraction(v ** 2 * w ** 2)
    assert cd.relations_U[0] == expected


def test_relation_degrees(covers):
    for p in (3, 5, 13):
        for rel in covers[p].relations_U + covers[p].relations_W:
            assert rel.formal_degrees() <= {p + 1, 2}


@pytest.mark.parametrize("p", PRIMES)
def test_gluing(covers, p):
    assert check_gluing(covers[p]).ok


def test_gluing_entry_c(covers):
    cd = covers[3]
    ctx = cd.ctx
    u, v, w = ctx.variables()
    alpha = FormalPolynomial.variable(ctx, W_VARS, "alpha")
    gamma = FormalPolynomial.variable(ctx, W_VARS, "gamma")
    expected = alpha * ctx.fraction(u, 0, 1) + gamma * ctx.fraction(v * v, 1, 1)
    assert cd.substitution["c"] == expected


def test_gluing_det_is_target_det(covers):
    cd = covers[5]
    s = cd.substitution
    det_subst = s["a"] * s["d"] - s["b"] * s["c"]
    ctx = cd.ctx
    alpha, beta, gamma, delta = (
        FormalPolynomial.variable(ctx, W_VARS, n) for n in W_VARS
    )
    assert det_subst == alpha * delta - beta * gamma


def test_gluing_detects_wrong_transition(covers):
    cd = covers[3]
    mutated = cd._replace(T=adjugate(cd.T))
    assert not check_gluing(mutated).ok


@pytest.mark.parametrize("p", (3, 5))
def test_section_ring_identities(covers, p):
    out = check_section_ring(covers[p])
    assert out.ok, out.detail


def test_section_ring_literal_variant_nonzero(covers):
    # the u^2 w delta spelling of the second membership must not vanish
    cd = covers[5]
    out = check_section_ring(cd)
    literal = [c for c in out.claims if c.kind == "nonzero"]
    assert len(literal) == 1
    assert not literal[0].obj.is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_det_periodicity(covers, p):
    assert check_det_periodicity(covers[p]).ok


def test_frobenius_det_expansion_p3(covers):
    cd = covers[3]
    ctx = cd.ctx
    a, b, c, d = (FormalPolynomial.variable(ctx, U_VARS, n) for n in U_VARS)
    det_a = a * d - b * c
    assert det_a ** 3 == a ** 3 * d ** 3 - b ** 3 * c ** 3


@pytest.mark.parametrize("p", (3, 5))
def test_formal_pow_equals_repeated_product(covers, p):
    cd = covers[p]
    ctx = cd.ctx
    u, _, w = ctx.variables()
    f = det(cd.A) * ctx.fraction(u, 0, 1) + ctx.fraction(w, 1, 0)
    for n in (0, 1, 2, 3, 4, 7, 8, p - 1, p, p + 1):
        acc = FormalPolynomial.constant(ctx, U_VARS, 1)
        for _ in range(n):
            acc = acc * f
        assert f ** n == acc
    assert f ** 0 == FormalPolynomial.constant(ctx, U_VARS, 1)


def _power_bases(cd):
    """name -> (base, heavy): bases of 0, 1, 2 and 3 terms.  A heavy base has
    a fraction coefficient of several terms, whose reference power is too
    slow above n = 2p + 3 for p >= 7."""
    ctx, H = cd.ctx, cd.H_U
    a, b, c, d = (FormalPolynomial.variable(ctx, U_VARS, n) for n in U_VARS)
    one = FormalPolynomial.constant(ctx, U_VARS, 1)
    return {
        "zero": (one - one, False),
        "monomial with an H_U coefficient": (b * H[0][1], False),
        "det A": (det(cd.A), False),
        "H_U monomial fractions": (a * H[0][0] + d * H[1][1], False),
        "H_U fractions of two terms": (a * H[0][1] + b * H[1][0], True),
        "1 + a + a^2": (one + a + a * a, False),
        "three terms with H_U fractions": (a * H[0][0] + b + c * H[1][0], True),
    }


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_formal_pow_equals_square_and_multiply(covers, p):
    """The binomial expansion of a base of one or two terms, and the
    square-and-multiply of a longer one, equal gf.power on the same base."""
    cd = covers[p]
    one = FormalPolynomial.constant(cd.ctx, U_VARS, 1)
    for name, (base, heavy) in _power_bases(cd).items():
        for n in (0, 1, 2, p - 1, p, p + 1, 2 * p + 3, p * p):
            if heavy and p >= 7 and n > 2 * p + 3:
                continue
            assert base ** n == power(base, n, one), (name, n)


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_binomial_residues_equal_exact_binomials_mod_p(p):
    """The pairs (k, C(n, k) mod p) from Lucas' theorem are those of
    math.comb with a nonzero residue, k increasing: n = p^2 and p^2 + p + 1
    have C(n, k) divisible by p^2, and n = p^3 - 1 has every residue nonzero."""
    for n in (0, 1, p - 1, p, p + 1, p * p, p * p + p + 1, p ** 3 - 1):
        exact = [(k, math.comb(n, k) % p) for k in range(n + 1)]
        assert list(binomial_residues(n, p)) == [(k, r) for k, r in exact if r], n


def test_formal_power_squares_only_for_three_or_more_terms(monkeypatch):
    """gf.power squares only while bits remain: a three-term base to the
    101st makes 6 squarings and 3 other products.  det A, of two terms, is
    expanded by the binomial theorem with no formal product at all."""
    p = 101
    cd = build_cover_data(p)
    a = FormalPolynomial.variable(cd.ctx, U_VARS, "a")
    three = FormalPolynomial.constant(cd.ctx, U_VARS, 1) + a + a * a
    dA = det(cd.A)
    products = []
    mul = FormalPolynomial.__mul__

    def counted(self, other):
        products.append(other is self)
        return mul(self, other)

    monkeypatch.setattr(FormalPolynomial, "__mul__", counted)
    three ** p
    assert products.count(True) == p.bit_length() - 1
    assert len(products) == p.bit_length() - 1 + bin(p).count("1") - 1 == 9
    products.clear()
    assert len((dA ** p).terms) == 2
    assert products == []


def test_det_periodicity_multiplies_few_fractions(monkeypatch):
    # (det A)^p is a binomial expansion: two coefficient powers, not O(p^2) products
    cd = build_cover_data(101)
    # Only calls that return a product count: mat_mul(H_U, A) first tries
    # the fraction operand's *, which returns NotImplemented (8 times at
    # p = 101, where 47 products are made).
    calls = []
    mul = CurvePolynomial.__mul__

    def counted(self, other):
        result = mul(self, other)
        if result is not NotImplemented:
            calls.append(other)
        return result

    monkeypatch.setattr(CurvePolynomial, "__mul__", counted)
    monkeypatch.setattr(CurvePolynomial, "__rmul__", counted)
    assert check_det_periodicity(cd).ok
    assert len(calls) <= 50


def _pairwise_fraction_product(f, g):
    """f * g with every coefficient pair multiplied and summed as CurvePolynomials."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            out[e] = out[e] + prod if e in out else prod
    return FormalPolynomial(f.ctx, f.vars, out)


def _sum_of_slice_products(f, g):
    """f * g as the sum, by +, of f times each single term c*x^e of g, where
    f times that term is f * c with every exponent shifted by e."""
    total = FormalPolynomial(f.ctx, f.vars, {})
    for e2, c2 in g.terms.items():
        shifted = {tuple(a + b for a, b in zip(e1, e2)): c for e1, c in (f * c2).terms.items()}
        total = total + FormalPolynomial(f.ctx, f.vars, shifted)
    return total


def _layout(f):
    """Terms in insertion order, each with its coefficient's representation."""
    return [(e, c.terms, c.du, c.dw) for e, c in f.terms.items()]


def _random_formal(ctx, rng):
    """A few terms in U_VARS of degree <= 1 per variable, most of them with
    F_p-constant coefficients (some written as reducible fractions)."""
    u, v, w = ctx.variables()
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        exps = tuple(rng.randrange(2) for _ in U_VARS)
        kind = rng.randrange(3)
        if kind == 0:
            terms[exps] = rng.randrange(ctx.p)
        elif kind == 1:
            du, dw = rng.randrange(3), rng.randrange(3)
            terms[exps] = ctx.fraction(u ** du * w ** dw * rng.randrange(1, ctx.p), du, dw)
        else:
            num = ctx.zero()
            for _ in range(rng.randrange(1, 4)):
                c = rng.randrange(1, ctx.p)
                i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(ctx.p + 3)
                num = num + c * u ** i * v ** j * w ** k
            terms[exps] = ctx.fraction(num, rng.randrange(3), rng.randrange(3))
    return FormalPolynomial(ctx, U_VARS, terms)


@pytest.mark.parametrize("p", (3, 5))
def test_formal_product_equals_pairwise_fraction_product(p):
    ctx = CurveContext(p)
    cancelled = 0
    for seed in range(60):
        rng = random.Random(seed)
        f, g = _random_formal(ctx, rng), _random_formal(ctx, rng)
        product, reference = f * g, _pairwise_fraction_product(f, g)
        assert _layout(product) == _layout(reference)
        assert product == reference
        sums = {tuple(a + b for a, b in zip(e1, e2)) for e1 in f.terms for e2 in g.terms}
        cancelled += len(product.terms) < len(sums)
    assert cancelled  # some seeds have a sum that cancels to zero


@pytest.mark.parametrize("p", (3, 5, 13))
def test_formal_product_equals_sum_of_term_slices(p):
    """The product agrees with a reference that shares no loop with it, on
    random pairs (whose sums cancel for some seeds) and on det A times its
    powers and the entries of A^(p)."""
    ctx = CurveContext(p)
    pairs = []
    for seed in range(60):
        rng = random.Random(seed)
        pairs.append((_random_formal(ctx, rng), _random_formal(ctx, rng)))
    A = build_cover_data(p).A
    dA = det(A)
    pairs += [(dA, g) for g in (dA, dA ** p, *(x for row in entrywise_p_power(A) for x in row))]
    for f, g in pairs:
        assert f * g == _sum_of_slice_products(f, g)


@pytest.mark.parametrize("p", (3, 5, 13))
def test_formal_product_and_det_power_evaluate_pointwise(covers, p):
    """Evaluation is a ring map: (f*g)(x) = f(x)*g(x), and (det A)^p at x
    is (a*d - b*c)^p of the assigned values, checked in GF(p^2)."""
    ctx = covers[p].ctx
    dA_p = det(covers[p].A) ** p
    field = make_extension_field(p, 2)
    rng = random.Random(p)
    pts = [CurvePoint(ctx, pt) for pt in random_curve_points(field, 5, rng)]
    for _ in range(20):
        f, g = _random_formal(ctx, rng), _random_formal(ctx, rng)
        fg = f * g
        for pt in pts:
            x = {name: field.random_element(rng) for name in U_VARS}
            assert fg.evaluate(x, pt) == f.evaluate(x, pt) * g.evaluate(x, pt)
            value = x["a"] * x["d"] - x["b"] * x["c"]
            assert dA_p.evaluate(x, pt) == value ** p


def test_formal_product_cancels_constant_and_mixed_sums():
    ctx = CurveContext(5)
    u, _, w = ctx.variables()
    a, b, c, d = (FormalPolynomial.variable(ctx, U_VARS, n) for n in U_VARS)
    F, F_inv = ctx.fraction(u, 0, 1), ctx.fraction(w, 1, 0)
    cases = (
        (2 * a + 3 * b, 2 * a - 3 * b),  # a*b cancels between two constant pairs
        (a + b * F, b - a * F_inv),  # a*b: constant 1 plus mixed -F*F^-1
        (c * F + d, c * F - d),  # c*d cancels between two mixed pairs
    )
    for f, g in cases:
        product, reference = f * g, _pairwise_fraction_product(f, g)
        assert _layout(product) == _layout(reference)
        assert len(product.terms) == 2


@pytest.mark.parametrize("p", (3, 101))
def test_formal_product_on_det_powers_and_p_powers(p):
    """The product equals the pairwise reference on the products the
    periodicity check makes: powers of det A and entries of A^(p)."""
    A = build_cover_data(p).A
    dA = det(A)
    factors = (dA, dA * dA, dA ** p, *(x for row in entrywise_p_power(A) for x in row))
    for f in factors:
        for g in factors:
            product, reference = f * g, _pairwise_fraction_product(f, g)
            assert _layout(product) == _layout(reference)
            assert product == reference


@pytest.mark.parametrize("top_f, top_g", ((1, 1), (3, 1), (3, 4), (4, 4), (7, 8)))
def test_formal_product_sums_fill_the_packing_width(top_f, top_g):
    """Exponent sums reach top_f + top_g in every variable at once and next
    to zero exponents, and each lands on the monomial it sums to."""
    ctx = CurveContext(5)
    u, _, w = ctx.variables()
    n = len(U_VARS)
    ones = lambda e: tuple(e for _ in range(n))
    unit = lambda i, e: tuple(e * (j == i) for j in range(n))
    f = FormalPolynomial(ctx, U_VARS, {
        ones(top_f): 2, unit(0, top_f): ctx.fraction(u, 0, 1), unit(3, top_f): 3, ones(0): 1,
    })
    g = FormalPolynomial(ctx, U_VARS, {
        ones(top_g): 4, unit(1, top_g): 1, unit(3, top_g): ctx.fraction(w, 1, 0), ones(0): 2,
    })
    product, reference = f * g, _pairwise_fraction_product(f, g)
    assert _layout(product) == _layout(reference)
    assert ones(top_f + top_g) in product.terms
    assert unit(3, top_f + top_g) in product.terms
    assert max(max(e) for e in product.terms) == top_f + top_g


def test_formal_product_of_constants_and_zero():
    ctx = CurveContext(5)
    three, four = (FormalPolynomial.constant(ctx, U_VARS, k) for k in (3, 4))
    zero = FormalPolynomial(ctx, U_VARS, {})
    assert _layout(three * four) == [((0, 0, 0, 0), {(0, 0, 0): 2}, 0, 0)]
    assert (three * zero).is_zero() and (zero * three).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_w0_specialization(covers, p):
    out = check_w0_specialization(covers[p])
    assert out.ok, out.detail


def test_w0_relation_two_and_four(covers):
    # the D coefficients collapse to (0, -1, -2, 0) at w = 0
    from syzcover.cover import _w0_equal_const

    cd = covers[5]
    h = cd.H_U
    flat = (h[0][0], h[0][1], h[1][0], h[1][1])
    for entry, const in zip(flat, (0, -1, -2, 0)):
        assert _w0_equal_const(-entry, const)
    # and with the wrong constant the comparison fails
    assert not _w0_equal_const(-flat[1], 0)
    assert not _w0_equal_const(-flat[2], 2)


@pytest.mark.parametrize("p", (5, 13))
def test_w0_specialization_names_a_failing_relation_once(covers, p):
    """H_U[0][1] + 1 moves relation 2's D coefficient at w = 0 and its value at
    every w = 0 point: one problem per failing comparison, not one per point."""
    cd = covers[p]
    (h11, h12), row2 = cd.H_U
    out = check_w0_specialization(cd._replace(H_U=((h11, h12 + 1), row2)))
    assert out.problems == [
        "relation 2: D coefficient does not specialize to -1",
        "relation 2: point evaluation at w = 0 disagrees",
    ]


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def test_matrix_ideal_shift_trivial_cases():
    F = make_extension_field(7)
    rng = random.Random(1)
    n = 3
    B = mat([[F.random_element(rng) for _ in range(n)] for _ in range(n)])
    while det(B).is_zero():
        B = mat([[F.random_element(rng) for _ in range(n)] for _ in range(n)])
    C = mat([[F.random_element(rng) for _ in range(n)] for _ in range(n)])
    A = mat_mul(C, B)
    d_inv = det(B).inverse()
    B_inv = tuple(tuple(d_inv * x for x in row) for row in adjugate(B))
    G = mat_sub(mat_mul(A, B_inv), C)
    assert all(entry.is_zero() for row in G for entry in row)

    eye = mat([[F.one if i == j else F.zero for j in range(n)] for i in range(n)])
    A2 = mat([[F.random_element(rng) for _ in range(n)] for _ in range(n)])
    G2 = mat_sub(mat_mul(A2, adjugate(eye)), C)  # det(eye) = 1
    H2 = mat_sub(A2, mat_mul(C, eye))
    assert G2 == H2


def test_matrix_ideal_shift_random_samples():
    F = make_extension_field(7)
    out = check_matrix_ideal_shift(F, random.Random(0), samples=100)
    assert out.ok, out.detail


@pytest.mark.parametrize(
    "p, seed",
    # GF(7), the field the report samples, keeps the bare seed as its id
    [pytest.param(p, seed, id=str(seed) if p == 7 else f"p{p}-{seed}") for p in (3, 5, 7, 13) for seed in range(4)],
)
def test_matrix_ideal_shift_draws_like_field_elements(p, seed):
    """The int check makes the rng calls of drawing A, B, C row by row as GF(p)
    elements, at primes that reject 1/4 (p = 3), 3/8 (p = 5), 1/8 (p = 7) and
    3/16 (p = 13) of the raw draws, and at none of them draws one value more."""
    F = make_extension_field(p)
    rng, twin = random.Random(seed), random.Random(seed)
    out = check_matrix_ideal_shift(F, rng, samples=100)
    assert out.detail == f"ideal-shift identities hold on 200 samples over GF({p})"
    for n in (2, 3):
        done = 0
        while done < 100:
            _, B, _ = (
                mat([[F.random_element(twin) for _ in range(n)] for _ in range(n)]) for _ in range(3)
            )
            done += not det(B).is_zero()
    assert rng.getstate() == twin.getstate()


def test_matrix_ideal_shift_fails_on_wrong_adjugate(monkeypatch):
    def off_by_one(M):
        adj = [list(row) for row in adjugate(M)]
        adj[0][0] += 1
        return mat(adj)

    monkeypatch.setattr(cover, "adjugate", off_by_one)
    out = check_matrix_ideal_shift(make_extension_field(7), random.Random(0), samples=100)
    assert not out.ok
    assert out.detail == "ideal-shift identity failed at size 2"


@pytest.mark.parametrize("ring", ("int", "GF(7)", "GF(5^2)"))
def test_adjugate_3x3_times_matrix_is_det_identity(ring):
    rng = random.Random(0)
    draw = {
        "int": lambda: rng.randrange(-9, 10),
        "GF(7)": lambda: make_extension_field(7).random_element(rng),
        "GF(5^2)": lambda: make_extension_field(5, 2).random_element(rng),
    }[ring]
    for _ in range(50):
        M = mat([[draw() for _ in range(3)] for _ in range(3)])
        d = det(M)
        scalar = mat([[d if i == j else d - d for j in range(3)] for i in range(3)])
        assert mat_mul(M, adjugate(M)) == scalar
        assert mat_mul(adjugate(M), M) == scalar


def test_matrix_ideal_shift_needs_prime_field():
    with pytest.raises(ValueError, match="prime field"):
        check_matrix_ideal_shift(make_extension_field(7, 2), random.Random(0))


@pytest.mark.parametrize("samples", (0, -1))
def test_matrix_ideal_shift_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_matrix_ideal_shift(make_extension_field(7), random.Random(0), samples=samples)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_oracle_confirms_cover_checks(covers, p):
    suite = OracleSuite(seed=2)
    for check in ALL_CHECKS:
        out = check(covers[p])
        assert out.ok, out.detail
        ok, msg = suite.check_all(out.claims)
        assert ok, msg


@pytest.mark.parametrize("p", (5, 13))
@pytest.mark.parametrize("seed", range(4))
def test_oracle_rng_stream_is_sampler_then_every_formal_draw(p, seed):
    """After the lemmas and cover claims, all on one curve, the oracle's rng
    stands where the sampler's draws and then ORACLE_POINTS * len(vars) element draws per
    formal claim, in claim order, leave it, whatever the claims' kinds and
    values: a zero formal claim draws too, and a nonzero one draws all its
    values before it stops at the first nonzero one."""
    catalog = build_catalog(p)
    cd = build_cover_data(p, catalog)
    lemma_checks = (check_catalog, check_kernel_relation, check_alpha, check_independence)
    claims = [c for chk in lemma_checks for c in chk(catalog).claims]
    claims += [c for chk in ALL_CHECKS for c in chk(cd).claims]
    suite = OracleSuite(seed)
    ok, msg = suite.check_all(claims)
    assert ok, msg
    for kind in ("zero", "nonzero"):
        assert any(isinstance(c.obj, FormalPolynomial) and c.kind == kind for c in claims)
    ctx = CurveContext(p)
    assert all(c.obj.ctx == ctx for c in claims)
    field = make_extension_field(p, 2)
    replay = random.Random(seed * 1000003 + p * 101 + (p + 1))
    random_curve_points(field, ORACLE_POINTS, replay)
    for claim in claims:
        if isinstance(claim.obj, FormalPolynomial):
            for _ in range(ORACLE_POINTS * len(claim.obj.vars)):
                field.random_element(replay)
    assert suite._oracle.rng.getstate() == replay.getstate()


def test_transition_matrix_rebuild_matches(covers):
    cat = build_catalog(3)
    assert transition_matrix(cat.quad) == covers[3].T


def _representation(M):
    return [(entry.terms, entry.du, entry.dw) for row in M for entry in row]


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101, 1009))
def test_solved_matrices_match_the_transcription(p):
    """T, H_U and H_W solved from the frames equal the hand-written ones
    entry by entry, in the same reduced representation (numerator terms
    and the exponents of u and w in the denominator)."""
    cd = build_cover_data(p)
    h_u, h_w = h_matrices(cd.ctx)
    assert _representation(cd.T) == _representation(transition_matrix(cd.ctx))
    assert _representation(cd.H_U) == _representation(h_u)
    assert _representation(cd.H_W) == _representation(h_w)


@pytest.mark.parametrize("p", (3, 5, 13))
def test_catalog_sign_flips_fail_base_change(p):
    """Every sign flip of a nonzero component of s1, s2, s3, s1', s2', s3'
    gives, through build_cover_data, matrices that check_base_change rejects."""
    catalog = build_catalog(p)
    flips = 0
    for label in ("s1", "s2", "s3", "s1'", "s2'", "s3'"):
        for idx, component in enumerate(catalog[label].components):
            if component.is_zero():
                continue
            mutant = flip_sign(catalog, label, idx)
            assert not check_base_change(build_cover_data(p, mutant)).ok, f"{label}[{idx}]"
            flips += 1
    assert flips == 15


def test_w_chart_entries_print_their_denominator_as_a_monomial():
    """At p = 7 the H_W entries have denominator w^8, which the normal form
    would rewrite as u^8 + v^8; the text keeps it the monomial w^8."""
    cd = build_cover_data(7)
    assert [[str(h) for h in row] for row in cd.H_W] == [
        ["6*u^2*v^6/w^8", "(6*u^8 + 5*v^8)/w^8"],
        ["(5*u^8 + 6*v^8)/w^8", "6*u^6*v^2/w^8"],
    ]
    assert str(cd.ctx.fraction(cd.ctx.one(), 3, 9)) == "1/(u^3*w^9)"


def test_solve_frame_rejects_a_minor_that_is_no_chart_unit():
    """A basis whose minor on the solved components is not c x^n for the
    chart's variable x raises ValueError naming the minor: u + v on the
    u-chart, u^2 on the w-chart, and the zero minor of a repeated vector."""
    ctx = CurveContext(5)
    u, v, w = ctx.variables()
    f = ctx.fraction
    target = [f(1), f(u), f(w)]
    for basis, chart, minor in (
        (([f(1), f(u + v), f(0)], [f(0), f(0), f(1)]), 0, "u + v"),
        (([f(1), f(u * u), f(0)], [f(0), f(0), f(1)]), 2, "u^2"),
        (([f(1), f(u), f(0)], [f(1), f(u), f(0)]), 0, "0"),
    ):
        with pytest.raises(ValueError, match=rf"frame minor {re.escape(minor)} is not a unit"):
            cover._solve_frame((target, target), basis, 1, 2, chart)


def _w0_points_by_pow(ctx):
    """Reference for cover._w0_points: a scan of v0 over GF(p^2) with u0 = 1
    and one pow per element."""
    field = make_extension_field(ctx.p, 2)
    return [(field.one, v0, field.zero) for v0 in field.elements() if v0 ** (ctx.p + 1) == -field.one]


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 19, 101, 103, 251, 1009))
def test_w0_points_match_pow_scan(p):
    """min(20, p + 1) points (1 : v0 : 0), pairwise distinct up to scaling;
    asked for more, p + 1 distinct roots of v0 ** (p + 1) == -1, so all of
    them, which up to p = 103 are the pow scan's points up to order."""
    ctx = CurveContext(p)
    count = min(20, p + 1)
    pts = cover._w0_points(ctx, count)
    assert all(isinstance(pt, CurvePoint) and pt.ctx == ctx for pt in pts)
    assert len({(v0 * u0.inverse(), w0 * u0.inverse()) for u0, v0, w0 in pts}) == count
    every = [pt.coords for pt in cover._w0_points(ctx, p + 2)]
    assert len({v0.index for _, v0, _ in every}) == p + 1
    assert all(v0 ** (p + 1) == -1 for _, v0, _ in every)
    if p <= 103:
        assert sorted(every, key=lambda pt: pt[1].index) == _w0_points_by_pow(ctx)


@pytest.mark.parametrize("p", (3, 5, 13, 101))
def test_h_entries_take_one_value_on_each_projective_point(p):
    """Each of the 8 H entries has a numerator homogeneous of degree du + dw,
    so scaling a point by 2 or by t keeps its value (or its pole: the
    chart-W entries have w in the denominator).  So the affine w = 0 points
    that _w0_points leaves out, (l*u0, l*v0, 0), repeat the values at
    (1 : v0 : 0); sampled points with w0 != 0 are checked too."""
    cd, field = build_cover_data(p), make_extension_field(p, 2)
    ctx, h_u, h_w = cd.ctx, cd.H_U, cd.H_W
    entries = h_u[0] + h_u[1] + h_w[0] + h_w[1]
    assert all(h.homogeneous_degree() == h.du + h.dw for h in entries)

    def value(h, pt):
        try:
            return h.evaluate(pt)
        except ZeroDivisionError:
            return "pole"

    sampled = [CurvePoint(ctx, pt) for pt in random_curve_points(field, 5, random.Random(p))]
    for pt in cover._w0_points(ctx, min(20, p + 1)) + sampled:
        for lam in (field.from_index(2), field.from_index(p)):
            scaled = CurvePoint(ctx, tuple(lam * x for x in pt))
            assert [value(h, scaled) for h in entries] == [value(h, pt) for h in entries]


def test_w0_specialization_fails_on_off_curve_point(covers):
    """A corrupted Frobenius matrix (column 0) takes the norm of a candidate z
    out of F_p at p = 11, where -1 is not a square and its roots go through
    z: a fail, not a crash.  At p = 13, where -1 = 5^2, the roots use no
    Frobenius and pass."""
    for p, detail in ((11, "w = 0 sample: the norm of 1 + t in GF(11^2) is not in F_p"), (13, None)):
        field = make_extension_field(p, 2)
        columns = field.frobenius_columns()
        try:
            field._frobenius = ((columns[0][0] + 1, columns[0][1]), columns[1])
            out = check_w0_specialization(covers[p])
        finally:
            field._frobenius = columns
        assert out.ok is (detail is None), p
        assert detail is None or out.detail == detail
        assert check_w0_specialization(covers[p]).ok


def test_w0_specialization_fails_on_a_root_off_the_curve(covers, monkeypatch):
    """A v0 that is no root of x^14 = -1 is rejected by the point check: a fail, not a crash."""
    monkeypatch.setattr(cover, "norm_root", lambda field: lambda c, j: field.from_index(2))
    out = check_w0_specialization(covers[13])
    assert not out.ok
    assert out.detail == "w = 0 sample: point (1, 2, 0) does not lie on the curve u^14 + v^14 = w^14"
