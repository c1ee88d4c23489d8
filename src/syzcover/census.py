"""Census of the cover's fiber over the point (1 : 0 : 1), over GF(p^2) only.

At that point the chart relations collapse to
    a = c^p,  b = d^p,  c^(q) - 2c = 0,  d^(q) - 2d = 0  (q = p^2)
together with (ad - bc)^(p-1) = -2.  The twist eta = norm_root(GF(p^2))(2, 0)
has norm eta^(p+1) = 2, and theta is a root of x^(p-1) = eta: then
theta^p = eta theta and theta^(p^2) = eta^(p+1) theta = 2 theta, so
Frobenius maps x theta to x^p eta theta and Frob^2 multiplies theta by 2.
theta lies in the census field GF(p^m), m = 2 ord_p(2) (fiber_field_degree),
and the solutions of c^(p^2) = 2c are GF(p^2) theta: a fiber point is held
as its pair of theta-coefficients (x, y), y = z x with x a unit and z in
GF(p^2) outside F_p, and ad - bc = D theta^2 with D = eta (x^p y - x y^p).
No field of degree above 2 is built, and a point is the int row
(x0, x1, y0, y1) of those coefficients on the basis {1, t}: the census
reads nothing else, so it makes no field element per point.

Re-verification checks the equations once per call, with the twisted
Frobenius on a basis (they are F_p-linear and bilinear; see _reverify); on
{theta, t theta} Frob^2 = 2 is exactly N(eta) = 2.  Per point only
ad - bc != 0 remains, and the class key, the theta^2-coefficient of ad - bc
whose values give the component structure, is int arithmetic on the
point's coefficients.

That certificate also gives the count at every prime: x^(p^2) - 2x has at
most p^2 roots and GF(p^2) theta supplies them, so the fiber points are
the F_p-bases (c, d) of that plane, |GL2(F_p)| = (p^2-1)p(p-1) of them, and
D(c, d) = (c0 d1 - c1 d0) D(1, t) splits them into p - 1 classes of
|SL2(F_p)| points.  The enumeration is a cross-check on that count, run
while the fiber has at most ENUMERATION_CAP points (p <= 7).

component_stats gives the closed-form invariants (counts, degrees,
genera) that a report carries as its stats at every prime.  fiber_checks
yields the outcomes of the three fiber checks, which hold the certificate,
and below the cap the census, to the same formulas, and certify the
Frobenius matrix of GF(p^2) and the value of H_U at (1 : 0 : 1) that the
census equations assume.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .curve import norm_root
from .gf import is_prime, make_extension_field, prime_factors
from .oracle import CheckOutcome

# Most fiber points enumerated as a cross-check: p = 7 has 2 016, p = 11 has 13 200.
ENUMERATION_CAP = 10_000

# H_U at (1 : 0 : 1), which turns F(A) = H_U A into the census equations.
CENSUS_PREMISE = [[0, 2], [1, 0]]


CensusResult = namedtuple("CensusResult", "prime points total")
CensusResult.points.__doc__ = (
    "The fiber points, each the row (c0, c1, d0, d1) of ints mod p: the solution "
    "(c theta, d theta) with c = c0 + c1 t and d = d0 + d1 t in GF(p^2); the other "
    "two coordinates are a = c^p, b = d^p."
)

ReportStats = namedtuple(
    "ReportStats",
    "components total_fiber degree genus_base genus_component eta_field_degree "
    "fiber_field_degree",
)


def _require_odd_prime(p: int):
    if not is_prime(p) or p < 3:
        raise ValueError(f"expected an odd prime, got {p}")


def _order(a: int, p: int) -> int:
    """The multiplicative order of a mod p, for a prime to p: p - 1 with
    each prime q of p - 1 divided out while a^(k/q) = 1."""
    k = p - 1
    for q in prime_factors(p - 1):
        while k % q == 0 and pow(a, k // q, p) == 1:
            k //= q
    return k


def eta_field_degree(p: int) -> int:
    """Smallest k such that x^(p-1) = -2 has a solution in GF(p^k).

    Solvability in GF(p^k) reduces to (-2)^((p^k-1)/(p-1)) = 1, an
    exponent congruent to k mod p-1, so k is the order of -2 mod p.
    """
    _require_odd_prime(p)
    return _order(-2, p)


def fiber_field_degree(p: int) -> int:
    """Smallest m with all solutions of c^(p^2-1) = 2 inside GF(p^m): 2 ord_p(2).

    (p^2 - 1) | (p^m - 1) forces m even, and then (p^m-1)/(p^2-1), the sum
    of p^(2i) for i < m/2, is congruent to m/2 mod p-1, so the solvability
    criterion 2^((p^m-1)/(p^2-1)) = 1 reads ord_p(2) | m/2.
    """
    _require_odd_prime(p)
    return 2 * _order(2, p)


@lru_cache(maxsize=None)
def frobenius_twist(p: int):
    """eta in GF(p^2) with eta^(p+1) = 2: Frob(x theta) = x^p eta theta."""
    _require_odd_prime(p)
    return norm_root(make_extension_field(p, 2))(2, 0)


def enumerate_fiber(p: int) -> CensusResult:
    """All fiber points over (1 : 0 : 1).

    Points come c by c over the units of GF(p^2) in index order, and for
    each c the products d = z*c over the z outside F_p (index >= p) in
    index order.  t*z is the one field product per z, and then
    d = c0 z + c1 (t z) is int arithmetic on coefficients.
    """
    _require_odd_prime(p)
    field = make_extension_field(p, 2)
    t = field.element([0, 1])
    ratios = [
        (z0, z1, *(t * field.element([z0, z1])).coeffs) for z1 in range(1, p) for z0 in range(p)
    ]
    points = tuple(
        (c0, c1, (c0 * z0 + c1 * w0) % p, (c0 * z1 + c1 * w1) % p)
        for c1 in range(p)
        for c0 in range(p)
        if c0 or c1
        for z0, z1, w0, w1 in ratios
    )
    return CensusResult(p, points, len(points))


def _reverify(p: int, points) -> tuple:
    """(every point verified, points grouped by ad - bc), with one certificate per call.

    Frob(x theta) = F(x) theta with F(x) = x^p eta on theta-coefficients.
    Frob^2 = 2 is F_p-linear on GF(p^2) theta, so checking it on the basis
    {theta, t theta} covers the equation of every c and d.  ad - bc =
    D(c, d) theta^2 with D(c, d) = F(c) d - c F(d), F_p-bilinear and
    alternating, so D(c, d) = (c0 d1 - c1 d0) k with k = D(1, t); and
    Frob(D theta^2) = D^p eta^2 theta^2, so Frob(ad - bc) = -2 (ad - bc)
    holds for every point once it holds for k.  k != 0 is checked too, so
    the certificate stands with no points.  Each point's key, the
    theta^2-coefficient of ad - bc, is then int arithmetic on its
    coefficients, and only D != 0 remains per point: it rules out c = 0,
    d = 0 and d/c in F_p.  Points are filed in point order, and the key
    (c0 d1 - c1 d0) k is formed once for each value of c0 d1 - c1 d0 that
    occurs, so the cost does not grow with p.
    """
    field = make_extension_field(p, 2)
    eta = frobenius_twist(p)
    one, t = field.one, field.element([0, 1])
    f1, ft = one.p_power() * eta, t.p_power() * eta
    k = f1 * t - ft
    ok = (
        (f1.p_power() * eta, ft.p_power() * eta) == (2 * one, 2 * t)
        and k.p_power() * (eta * eta) == -2 * k
        and not k.is_zero()
    )
    keys, classes = {}, {}
    for row in points:
        c0, c1, d0, d1 = row
        delta = (c0 * d1 - c1 * d0) % p
        if delta not in keys:
            keys[delta] = (k * delta).coeffs
        classes.setdefault(keys[delta], []).append(row)
    return ok and (0, 0) not in classes, classes


def reverify_census(census: CensusResult) -> tuple:
    """(every point verified, points grouped by the theta^2-coefficient of ad - bc)."""
    return _reverify(census.prime, census.points)


def verify_fiber_point(p: int, row: tuple) -> bool:
    """Re-check the three defining equations on the point row (c0, c1, d0, d1)."""
    return _reverify(p, (row,))[0]


def determinant_classes(census: CensusResult) -> dict:
    """Fiber points grouped by the value of ad - bc."""
    return _reverify(census.prime, census.points)[1]


def component_stats(p: int) -> ReportStats:
    """The closed-form invariants of the cover, as a report's stats."""
    _require_odd_prime(p)
    degree = p * (p * p - 1)
    genus_base = p * (p - 1) // 2
    return ReportStats(
        components=p - 1,
        total_fiber=(p * p - 1) * p * (p - 1),
        degree=degree,
        genus_base=genus_base,
        genus_component=degree * (genus_base - 1) + 1,
        eta_field_degree=eta_field_degree(p),
        fiber_field_degree=fiber_field_degree(p),
    )


def hurwitz_consistent(stats: ReportStats) -> bool:
    """2 g_X - 2 = deg * (2 g_Y - 2) for the unramified cover."""
    return 2 * stats.genus_component - 2 == stats.degree * (2 * stats.genus_base - 2)


def _unmet(*conditions) -> list:
    """The notes of the (note, holds) pairs whose condition does not hold."""
    return [note for note, holds in conditions if not holds]


def fiber_checks(p: int, stats: ReportStats, h_point):
    """Yield (name, CheckOutcome) for fiber_census, component_structure and
    genus_hurwitz, in that order.

    The certificate of _reverify gives the count and the classes at every
    prime; h_point, H_U evaluated at (1 : 0 : 1) over GF(p), must be the
    CENSUS_PREMISE the census equations are read from.  While the fiber has
    at most ENUMERATION_CAP points the census is enumerated too, and its
    total and classes are held to stats."""
    field = make_extension_field(p, 2)
    frobenius_ok = not field.frobenius_mismatches()
    enumerated = stats.total_fiber <= ENUMERATION_CAP
    census = enumerate_fiber(p) if enumerated else CensusResult(p, (), 0)
    # eta is a norm root, which a wrong Frobenius matrix can make raise
    verified, classes = reverify_census(census) if frobenius_ok else (False, {})
    premises = (
        ("Frobenius matrix not certified", frobenius_ok),
        ("H_U(1 : 0 : 1) is not [[0, 2], [1, 0]]", h_point == CENSUS_PREMISE),
    )
    field_text = f"GF({p}^{stats.fiber_field_degree})"
    if enumerated:
        yield "fiber_census", CheckOutcome(
            f"{census.total} fiber points enumerated in {field_text}, "
            f"equal to (p^2-1)p(p-1), every point re-verified",
            problems=_unmet(
                *premises,
                ("census total off the formula", census.total == stats.total_fiber),
                ("a fiber point is listed twice",
                 len(set(census.points)) == len(census.points)),
                ("point re-verification failed", verified),
            ),
        )
        structure = _unmet(
            ("wrong number of determinant values", len(classes) == stats.components),
            ("a class size differs from the degree",
             all(len(v) == stats.degree for v in classes.values())),
            # a key k stands for k theta^2, and (theta^2)^(p-1) = eta^2
            ("a determinant value's (p-1)-th power is not -2",
             all(field.element(k) ** (p - 1) * frobenius_twist(p) ** 2 == -2 for k in classes)),
        )
    else:
        yield "fiber_census", CheckOutcome(
            f"{stats.total_fiber} fiber points certified in {field_text}, "
            f"equal to (p^2-1)p(p-1): the F_p-bases of GF(p^2) theta, "
            f"not enumerated above {ENUMERATION_CAP} points",
            problems=_unmet(*premises, ("point re-verification failed", verified)),
        )
        structure = _unmet(("determinant values not certified", verified))
    yield "component_structure", CheckOutcome(
        f"ad-bc takes exactly {stats.components} values, each with (p-1)-th power -2, "
        f"each on {stats.degree} points",
        problems=structure,
    )
    yield "genus_hurwitz", CheckOutcome(
        f"2g-2 = {stats.degree}*(2*{stats.genus_base}-2) gives genus "
        f"{stats.genus_component}",
        "Hurwitz bookkeeping failed",
        problems=_unmet(
            ("unramified Hurwitz formula fails", hurwitz_consistent(stats)),
            ("fiber does not split into equal components",
             stats.total_fiber == stats.components * stats.degree),
        ),
    )
