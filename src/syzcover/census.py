"""Linear-algebra census of the cover's fiber over the point (1 : 0 : 1).

At that point the chart relations collapse to
    a = c^p,  b = d^p,  c^(q) - 2c = 0,  d^(q) - 2d = 0  (q = p^2)
together with (ad - bc)^(p-1) = -2, so fiber points are pairs (c, d) of
units with c and d both (p^2-1)-th roots of 2 and d/c outside the
(p-1)-torsion.  Inside the smallest finite field containing all solutions,
Frobenius is an F_p-linear map, so both solution sets are kernels found by
Gaussian elimination over F_p: the c are ker(Frob^2 - 2) minus 0 and the
ratios d/c are ker(Frob^2 - 1) minus ker(Frob - 1), that is GF(p^2) minus
F_p.  One pass re-verifies each point on the raw equations, with Frobenius
as the same certified matrix, and files it under ad - bc, whose values give
the component structure.  The enumeration runs only when the census field
has at most CENSUS_CAP elements (p <= 7).

component_stats gives the closed-form invariants (counts, degrees,
genera) that a report carries as its stats at every prime; the fiber
checks compare the census against the same formulas.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .gf import FieldElement, is_prime, linear_kernel, make_extension_field

# Largest census field enumerated point by point: GF(5^8) and GF(7^6) fit,
# GF(11^20) does not.
CENSUS_CAP = 1 << 22


class FiberPoint(namedtuple("FiberPoint", "c d")):
    """A solution (c, d); the other two coordinates are a = c^p, b = d^p."""

    __slots__ = ()

    def determinant(self) -> FieldElement:
        """ad - bc = c^p d - d^p c."""
        return self.c.frobenius() * self.d - self.d.frobenius() * self.c


CensusResult = namedtuple(
    "CensusResult", "prime field_degree skipped points total reason", defaults=("",)
)

ReportStats = namedtuple(
    "ReportStats",
    "components total_fiber degree genus_base genus_component eta_field_degree "
    "fiber_field_degree",
)


def _require_odd_prime(p: int):
    if not is_prime(p) or p < 3:
        raise ValueError(f"expected an odd prime, got {p}")


def eta_field_degree(p: int) -> int:
    """Smallest k such that x^(p-1) = -2 has a solution in GF(p^k).

    Solvability in GF(p^k) reduces to (-2)^((p^k-1)/(p-1)) = 1, an
    exponent congruent to k mod p-1, so the answer is the multiplicative
    order of -2 mod p; the criterion is still scanned directly.
    """
    _require_odd_prime(p)
    a = (-2) % p
    for k in range(1, p):
        e = (p ** k - 1) // (p - 1)
        if pow(a, e % (p - 1), p) == 1:
            return k
    raise RuntimeError("no eta field found below degree p")  # unreachable


def fiber_field_degree(p: int) -> int:
    """Smallest even m with all solutions of c^(p^2-1) = 2 inside GF(p^m).

    Needs (p^2 - 1) | (p^m - 1), which forces m even, plus the solvability
    criterion 2^((p^m-1)/(p^2-1)) = 1; the full solution set then fits
    because GF(p^m) contains all (p^2-1)-th roots of unity.
    """
    _require_odd_prime(p)
    n = p * p - 1
    for m in range(2, 4 * p, 2):
        qm1 = p ** m - 1
        if qm1 % n:
            continue
        e = qm1 // n
        if pow(2, e % (p - 1), p) == 1:
            return m
    raise RuntimeError("no census field found")  # unreachable


@lru_cache(maxsize=None)
def enumerate_fiber(p: int, cap: int = CENSUS_CAP) -> CensusResult:
    """All fiber points over (1 : 0 : 1), or a skip marker above the cap."""
    _require_odd_prime(p)
    m = fiber_field_degree(p)
    if p ** m > cap:
        return CensusResult(
            p, m, True, (), 0,
            f"census field GF({p}^{m}) has {p ** m} elements, above the cap {cap}",
        )
    field = make_extension_field(p, m)
    c_solutions = [
        c for c in linear_kernel(field, lambda x: x.frobenius().frobenius() - 2 * x) if c
    ]
    admissible = [
        z for z in linear_kernel(field, lambda x: x.frobenius().frobenius() - x)
        if z.frobenius() != z
    ]
    admissible.sort(key=lambda e: e.index)
    points = tuple(
        FiberPoint(c, z * c)
        for c in sorted(c_solutions, key=lambda e: e.index)
        for z in admissible
    )
    return CensusResult(p, m, False, points, len(points))


def _c_image(c: FieldElement) -> tuple:
    """(Frob(c), whether c^(p^2-1) = 2, that is c != 0 and Frob^2(c) = 2c)."""
    cp = c.frobenius()
    return cp, not c.is_zero() and cp.frobenius() == 2 * c


def _point_image(pt: FiberPoint, cp: FieldElement) -> tuple:
    """(ad - bc, whether d^(p^2-1) = 2 and (ad - bc)^(p-1) = -2), given cp = Frob(c).

    The second is ad - bc != 0 with Frob(ad - bc) = -2 (ad - bc)."""
    d = pt.d
    dp = d.frobenius()
    det = cp * d - pt.c * dp
    return det, (not d.is_zero() and dp.frobenius() == 2 * d
                 and not det.is_zero() and det.frobenius() == -2 * det)


def verify_fiber_point(pt: FiberPoint) -> bool:
    """Re-check the three defining equations on the point itself."""
    cp, c_ok = _c_image(pt.c)
    return c_ok and _point_image(pt, cp)[1]


def reverify_census(census: CensusResult) -> tuple:
    """(every point verified, points grouped by ad - bc), in one pass."""
    distinct = {pt.c.coeffs: pt.c for pt in census.points}
    images = {key: _c_image(c) for key, c in distinct.items()}
    ok = all(c_ok for _cp, c_ok in images.values())
    classes: dict = {}
    for pt in census.points:
        det, d_ok = _point_image(pt, images[pt.c.coeffs][0])
        ok = ok and d_ok
        classes.setdefault(det.coeffs, []).append(pt)
    return ok, classes


def determinant_classes(census: CensusResult) -> dict:
    """Fiber points grouped by the value of ad - bc."""
    return reverify_census(census)[1]


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
