"""Linear-algebra census of the cover's fiber over the point (1 : 0 : 1).

At that point the chart relations collapse to
    a = c^p,  b = d^p,  c^(q) - 2c = 0,  d^(q) - 2d = 0  (q = p^2)
together with (ad - bc)^(p-1) = -2, so fiber points are pairs (c, d) of
units with c and d both (p^2-1)-th roots of 2 and d/c outside the
(p-1)-torsion.  Inside the smallest finite field containing all solutions,
Frobenius is an F_p-linear map, so both solution sets are kernels found by
Gaussian elimination over F_p: the c are ker(Frob^2 - 2) minus 0 and the
ratios d/c are ker(Frob^2 - 1) minus ker(Frob - 1), that is GF(p^2) minus
F_p.  The products d = z*c and the re-verification of every point on the
raw equations run in bulk, on packed rows (syzcover.packed): coordinate j
of a batch of elements (all admissible z, or the d of one c-run) is
packed into one int, a slot per element, so each F_p-linear map
(Frobenius as the same certified matrix, multiplication by c,
d -> ad - bc for a fixed c) costs m^2 int products whatever the batch
size.  Each point is filed under ad - bc, whose values give the component
structure.  The enumeration runs only when the census field has at most
cap elements (by default CENSUS_CAP, which admits p <= 7).

component_stats gives the closed-form invariants (counts, degrees,
genera) that a report carries as its stats at every prime; the fiber
checks compare the census against the same formulas.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby

from .gf import FieldElement, is_prime, linear_kernel, make_extension_field

# Largest census field by default: GF(5^8) and GF(7^6) fit, GF(11^20) does not.
# A field-size proxy from when the census scanned the field; the census now
# enumerates only the (p^2-1)p(p-1) fiber points.
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


def _multiplication_columns(x: FieldElement) -> list:
    """Columns of y -> x*y on the power basis: x t^j for j < m, one product with t each."""
    t, columns = x.field.element([0, 1]), [x.coeffs]
    for _ in range(x.field.m - 1):
        x = x * t
        columns.append(x.coeffs)
    return columns


@lru_cache(maxsize=None)
def enumerate_fiber(p: int, cap: int = CENSUS_CAP) -> CensusResult:
    """All fiber points over (1 : 0 : 1), or a skip marker above the cap.

    Points come c by c in index order, and for each c the products d = z*c
    over the admissible z in index order, as one multiplication-by-c map
    applied to the packed z.
    """
    _require_odd_prime(p)
    m = fiber_field_degree(p)
    if p ** m > cap:
        return CensusResult(
            p, m, True, (), 0,
            f"census field GF({p}^{m}) has {p ** m} elements, above the cap {cap}",
        )
    from .packed import PackedRows  # loaded only by runs that reach a census

    field = make_extension_field(p, m)
    c_solutions = [
        c for c in linear_kernel(field, lambda x: x.frobenius().frobenius() - 2 * x) if c
    ]
    admissible = [
        z for z in linear_kernel(field, lambda x: x.frobenius().frobenius() - x)
        if z.frobenius() != z
    ]
    admissible.sort(key=lambda e: e.index)
    packed = PackedRows(p, m, len(admissible))
    zs = packed.pack([z.coeffs for z in admissible])
    points = tuple(
        FiberPoint(c, FieldElement(field, coeffs))
        for c in sorted(c_solutions, key=lambda e: e.index)
        for coeffs in packed.unpack(
            packed.reduce(packed.apply(_multiplication_columns(c), zs)))
    )
    return CensusResult(p, m, False, points, len(points))


def _check_run(run) -> tuple:
    """(every point verified, their ad - bc in point order) for points sharing one c.

    Frob(c) and c's own equation Frob^2(c) = 2c (c != 0) cost two Frobenius
    applications, the F_p-linear map d -> Frob(c) d - c Frob(d) is built
    from 2m - 2 field products, and the run's d are packed, so that d != 0,
    Frob^2(d) = 2d, ad - bc != 0 and Frob(ad - bc) = -2 (ad - bc) are
    checked on every slot, with the certified Frobenius matrix read on
    each call.
    """
    from .packed import PackedRows  # loaded only by runs that reach a census

    c = run[0].c
    p, frobenius = c.field.p, c.field.frobenius_columns()
    cp = c.frobenius()
    packed = PackedRows(p, c.field.m, len(run))
    d = packed.pack([pt.d.coeffs for pt in run])
    dp = packed.reduce(packed.apply(frobenius, d))
    det = packed.reduce([a + b for a, b in zip(
        packed.apply(_multiplication_columns(cp), d),
        packed.apply(_multiplication_columns(-c), dp),
    )])
    ok = (
        not c.is_zero()
        and cp.frobenius() == 2 * c
        and packed.none_zero(d)
        and packed.all_zero(  # Frob^2(d) - 2d
            [f + (p - 2) * x for f, x in zip(packed.apply(frobenius, dp), d)])
        and packed.none_zero(det)
        and packed.all_zero(  # Frob(det) + 2 det
            [f + 2 * x for f, x in zip(packed.apply(frobenius, det), det)])
    )
    return ok, packed.unpack(det)


def reverify_census(census: CensusResult) -> tuple:
    """(every point verified, points grouped by ad - bc), checked in bulk per
    c-run (consecutive points sharing one c) and filed in point order."""
    ok, classes = True, {}
    for _c, run in groupby(census.points, key=lambda pt: pt.c.coeffs):
        run = list(run)
        run_ok, dets = _check_run(run)
        ok = ok and run_ok
        for pt, key in zip(run, dets):
            classes.setdefault(key, []).append(pt)
    return ok, classes


def verify_fiber_point(pt: FiberPoint) -> bool:
    """Re-check the three defining equations on the point itself, as a one-point run."""
    return _check_run([pt])[0]


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
