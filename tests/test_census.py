import pytest

from syzcover import report
from syzcover.census import (
    CensusResult,
    FiberPoint,
    component_stats,
    determinant_classes,
    enumerate_fiber,
    eta_field_degree,
    fiber_field_degree,
    hurwitz_consistent,
    reverify_census,
    verify_fiber_point,
)
from syzcover.gf import (
    GF,
    FieldElement,
    find_generator,
    linear_kernel,
    make_extension_field,
    solve_power_equation,
)
from syzcover.packed import PackedRows
from syzcover.report import run_verification

PRIMES = (3, 5, 7, 11, 13)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 8), (7, 6)])
def test_fiber_field_degree(p, m):
    assert fiber_field_degree(p) == m


def test_fiber_field_degree_rejects_m2_for_p3():
    # in GF(9): 2^((9-1)/8) = 2 != 1, so degree 2 cannot hold the solutions
    F9 = make_extension_field(3, 2)
    assert solve_power_equation(F9, 8, F9(2)) == ()
    assert fiber_field_degree(3) == 4


@pytest.mark.parametrize("p,k", [(3, 1), (5, 4), (7, 6), (11, 5), (13, 12)])
def test_eta_field_degree(p, k):
    assert eta_field_degree(p) == k


def test_eta_degree_matches_power_equation_scans():
    # p = 3: -2 = 1 already has the square root 1 in the prime field
    F3 = make_extension_field(3)
    assert solve_power_equation(F3, 2, F3(-2)) != ()
    # p = 5: x^4 = -2 has no root below degree 4
    for k in (1, 2, 3):
        F = make_extension_field(5, k)
        assert solve_power_equation(F, 4, F(-2)) == ()
    F = make_extension_field(5, 4)
    sols = solve_power_equation(F, 4, F(-2))
    assert len(sols) == 4


@pytest.mark.parametrize("p,total", [(3, 48), (5, 480), (7, 2016)])
def test_census_total_matches_formula(p, total):
    census = enumerate_fiber(p)
    assert not census.skipped
    assert census.total == total == (p * p - 1) * p * (p - 1)


def _walk_census_points(p):
    """The census by subgroup walk: c from solve_power_equation, ratios from
    powers of a primitive (p^2-1)-th root of unity taken from find_generator."""
    field = make_extension_field(p, fiber_field_degree(p))
    n = p * p - 1
    c_solutions = solve_power_equation(field, n, field(2))
    root = find_generator(field) ** ((field.order - 1) // n)
    ratios = [root ** k for k in range(n)]
    admissible = [z for z in ratios if z ** (p - 1) != field.one]
    return tuple(
        FiberPoint(c, z * c)
        for c in sorted(c_solutions, key=lambda e: e.index)
        for z in sorted(admissible, key=lambda e: e.index)
    )


@pytest.mark.parametrize("p", (3, 5, 7))
def test_census_equals_walk_reference(p):
    assert enumerate_fiber(p).points == _walk_census_points(p)


def test_corrupted_frobenius_matrix_fails_census():
    """Every one-entry corruption of the census field's cached Frobenius matrix is caught.

    At p = 5 every fiber point is supported on {t, t^5} of GF(5^8), so a
    corrupted column the census never touches is caught only by the
    matrix's own certification inside the fiber_census check.
    """
    for p in (3, 5):
        field = make_extension_field(p, fiber_field_degree(p))
        columns = field.frobenius_columns()
        try:
            for i in range(field.m):
                for j in range(field.m):
                    bad = [list(col) for col in columns]
                    bad[i][j] = (bad[i][j] + 1) % p
                    field._frobenius = tuple(tuple(col) for col in bad)
                    enumerate_fiber.cache_clear()
                    report = run_verification(p, checks=("fiber",))
                    assert report.checks[0].name == "fiber_census"
                    assert report.checks[0].status == "fail", (p, i, j)
                    assert report.overall == "fail", (p, i, j)
        finally:
            field._frobenius = columns
            enumerate_fiber.cache_clear()
        assert run_verification(p, checks=("fiber",)).overall == "pass"


def test_census_p3_matches_full_double_scan():
    census = enumerate_fiber(3)
    F = make_extension_field(3, 4)
    brute = set()
    two = F(2)
    minus_two = F(-2)
    for c in F.elements():
        if c.is_zero() or c ** 8 != two:
            continue
        for d in F.elements():
            if d.is_zero() or d ** 8 != two:
                continue
            if (c * d ** 3 - c ** 3 * d) ** 2 == minus_two:
                brute.add((c.coeffs, d.coeffs))
    assert {(pt.c.coeffs, pt.d.coeffs) for pt in census.points} == brute
    assert len(brute) == 48


@pytest.mark.parametrize("p", (3, 5, 7))
def test_every_point_reverified(p):
    census = enumerate_fiber(p)
    for pt in census.points:
        assert verify_fiber_point(pt)


def test_reverification_embeds_no_int(monkeypatch):
    # 2 * c and -2 * cross scale coefficients; they build no field(k)
    pt = enumerate_fiber(5).points[0]
    embedded = []
    call = GF.__call__

    def counted(self, value):
        embedded.append(value)
        return call(self, value)

    monkeypatch.setattr(GF, "__call__", counted)
    assert verify_fiber_point(pt)
    assert embedded == []


def test_reverification_rejects_bad_point():
    census = enumerate_fiber(3)
    good = census.points[0]
    bad = FiberPoint(good.c, good.c)  # d/c = 1 violates the cross equation
    assert not verify_fiber_point(bad)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_quotient_structure(p):
    """d = zeta*c with zeta in the (p^2-1)-torsion minus (p-1)-torsion."""
    census = enumerate_fiber(p)
    F = census.points[0].c.field
    n = p * p - 1
    fibers = {}
    for pt in census.points:
        z = pt.d / pt.c
        assert z ** n == F.one
        assert z ** (p - 1) != F.one
        fibers.setdefault(z.coeffs, 0)
        fibers[z.coeffs] += 1
    assert len(fibers) == n - (p - 1)
    assert set(fibers.values()) == {n}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_determinant_classes(p):
    """ad - bc takes exactly p-1 values, each on a full component's worth."""
    census = enumerate_fiber(p)
    F = census.points[0].c.field
    classes = determinant_classes(census)
    assert len(classes) == p - 1
    degree = p * (p * p - 1)
    assert all(len(v) == degree for v in classes.values())
    for coeffs in classes:
        delta = F.element(coeffs)
        assert delta ** (p - 1) == F(-2)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reverify_census_classes_and_verdict(p):
    """The one pass groups points as FiberPoint.determinant does and agrees
    with verify_fiber_point point by point."""
    census = enumerate_fiber(p)
    verified, classes = reverify_census(census)
    expected = {}
    for pt in census.points:
        expected.setdefault(pt.determinant().coeffs, []).append(pt)
    assert classes == expected
    assert verified is all(verify_fiber_point(pt) for pt in census.points) is True


def _reference_enumeration(p):
    """The fiber points with one field product z * c per point, as enumerated
    before the products ran in bulk."""
    field = make_extension_field(p, fiber_field_degree(p))
    c_solutions = [
        c for c in linear_kernel(field, lambda x: x.frobenius().frobenius() - 2 * x) if c
    ]
    admissible = [
        z for z in linear_kernel(field, lambda x: x.frobenius().frobenius() - x)
        if z.frobenius() != z
    ]
    admissible.sort(key=lambda e: e.index)
    return tuple(
        FiberPoint(c, z * c)
        for c in sorted(c_solutions, key=lambda e: e.index)
        for z in admissible
    )


def _reference_c_image(c):
    cp = c.frobenius()
    return cp, not c.is_zero() and cp.frobenius() == 2 * c


def _reference_point_image(pt, cp):
    d = pt.d
    dp = d.frobenius()
    det = cp * d - pt.c * dp
    return det, (not d.is_zero() and dp.frobenius() == 2 * d
                 and not det.is_zero() and det.frobenius() == -2 * det)


def _reference_reverify(census):
    """The point-by-point re-verification, one field operation at a time, as
    it ran before the bulk check."""
    distinct = {pt.c.coeffs: pt.c for pt in census.points}
    images = {key: _reference_c_image(c) for key, c in distinct.items()}
    ok = all(c_ok for _cp, c_ok in images.values())
    classes = {}
    for pt in census.points:
        det, d_ok = _reference_point_image(pt, images[pt.c.coeffs][0])
        ok = ok and d_ok
        classes.setdefault(det.coeffs, []).append(pt)
    return ok, classes


def _same_outcome(census):
    """reverify_census and the reference agree on the verdict and on the class
    keys and members, in order; returns the verdict."""
    verified, classes = reverify_census(census)
    expected_ok, expected = _reference_reverify(census)
    assert verified is expected_ok
    assert list(classes) == list(expected)
    assert list(classes.values()) == list(expected.values())
    return verified


def _with_points(census, points):
    return CensusResult(census.prime, census.field_degree, False, tuple(points), len(points))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_bulk_census_matches_reference(p):
    census = enumerate_fiber(p)
    assert census.points == _reference_enumeration(p)
    assert _same_outcome(census) is True


@pytest.mark.parametrize("p", (3, 5, 7))
def test_bulk_reverification_groups_scattered_c(p):
    """Points sharing a c need not sit in one run."""
    points = enumerate_fiber(p).points
    scattered = points[1::2] + points[::-2]
    assert _same_outcome(_with_points(enumerate_fiber(p), scattered)) is True


@pytest.mark.parametrize("p", (3, 5, 7))
def test_dense_census_determinants(p):
    """Points whose coordinates are all p - 1 (and, for a second c and d, every
    other one): the bulk determinants must be FiberPoint.determinant."""
    census = enumerate_fiber(p)
    field = census.points[0].c.field
    top = field.element([p - 1] * field.m)
    mixed = field.element([p - 1, 0] * (field.m // 2))
    points = [FiberPoint(top, top), FiberPoint(top, mixed), FiberPoint(mixed, top)] * 7
    _verified, classes = reverify_census(_with_points(census, points))
    expected = {}
    for pt in points:
        expected.setdefault(pt.determinant().coeffs, []).append(pt)
    assert list(classes.items()) == list(expected.items())


@pytest.mark.parametrize("p,m", [(3, 4), (5, 8), (7, 6), (11, 20)])
def test_packed_slots_hold_the_largest_sum(p, m):
    """Two m-term halves with every entry and coordinate p - 1 reach the bound
    2m(p-1)^2 in every slot, which field data does not (the dense census above
    peaks at 231 of 432 at p = 7); no slot may carry into the next."""
    n = 5
    packed = PackedRows(p, m, n)
    top = (p - 1,) * m
    rows = packed.pack([top] * n)
    half = packed.apply([top] * m, rows)
    largest = [a + b for a, b in zip(half, half)]
    assert list(packed.unpack(packed.reduce(largest))) == [(2 * m * (p - 1) ** 2 % p,) * m] * n


def test_empty_census_verifies():
    assert reverify_census(CensusResult(5, 8, False, (), 0)) == (True, {})


def _bump(pt):
    """The point with coefficient 0 of d raised by 1: Frob^2(d + 1) = 2d + 1."""
    coeffs = pt.d.coeffs
    field = pt.d.field
    return FiberPoint(pt.c, FieldElement(field, ((coeffs[0] + 1) % field.p,) + coeffs[1:]))


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("where", ("first", "last", "run_end", "run_start", "zero", "scalar"))
def test_mutated_point_fails_reverification(p, where):
    census = enumerate_fiber(p)
    points = list(census.points)
    run = p * p - p  # points per c, in runs from enumerate_fiber
    assert points[run - 1].c != points[run].c
    k = {"first": 0, "last": -1, "run_end": run - 1, "run_start": run}.get(where, len(points) // 3)
    pt = points[k]
    if where == "zero":
        points[k] = FiberPoint(pt.c, pt.c.field.zero)
    elif where == "scalar":  # z = 2 in F_p: d's own equation holds, but ad - bc = 0
        points[k] = FiberPoint(pt.c, 2 * pt.c)
    else:
        points[k] = _bump(pt)
    assert _same_outcome(_with_points(census, points)) is False


def _fiber_census_status(monkeypatch, p, corrupt):
    """The fiber_census record of a run on a census whose points corrupt() altered."""
    census = enumerate_fiber(p)
    bad = CensusResult(p, census.field_degree, False, tuple(corrupt(census.points)), census.total)
    verified, classes = reverify_census(bad)
    assert verified is all(verify_fiber_point(pt) for pt in bad.points) is False
    assert sum(len(v) for v in classes.values()) == census.total
    monkeypatch.setattr(report, "enumerate_fiber", lambda p, cap: bad)
    out = run_verification(p, checks=("fiber",))
    return {c.name: (c.status, c.detail) for c in out.checks}["fiber_census"]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_shared_c_fails_census(monkeypatch, p):
    """One c, shared by p^2 - p points, moved off its equation Frob^2(c) = 2c."""

    def corrupt(points):
        c = points[0].c
        moved = c + 1  # Frob^2(c + 1) = 2c + 1, not 2c + 2
        shared = [pt for pt in points if pt.c is c]
        assert len(shared) == p * p - p
        return [FiberPoint(moved, pt.d) if pt.c is c else pt for pt in points]

    status, detail = _fiber_census_status(monkeypatch, p, corrupt)
    assert status == "fail"
    assert "point re-verification failed" in detail


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_single_d_fails_census(monkeypatch, p):
    def corrupt(points):
        k = len(points) // 2
        pt = points[k]
        return points[:k] + (FiberPoint(pt.c, pt.d + 1),) + points[k + 1:]

    status, detail = _fiber_census_status(monkeypatch, p, corrupt)
    assert status == "fail"
    assert "point re-verification failed" in detail


def _count_field_ops(monkeypatch):
    """Counts of Frobenius applications and of products of two field elements;
    scaling by an int (2d, -2(ad - bc)) is not a field product."""
    counts = {"frobenius": 0, "products": 0}
    frobenius, mul = FieldElement.frobenius, FieldElement.__mul__

    def counted_frobenius(self):
        counts["frobenius"] += 1
        return frobenius(self)

    def counted_mul(self, other):
        if isinstance(other, FieldElement):
            counts["products"] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "frobenius", counted_frobenius)
    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    return counts


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reverify_census_work(monkeypatch, p):
    """At most 2 Frobenius applications and 2m field products per distinct c,
    however many points share it: the points themselves are checked in bulk."""
    census = enumerate_fiber(p)
    counts = _count_field_ops(monkeypatch)
    verified, _classes = reverify_census(census)
    assert verified
    m, distinct_c = census.field_degree, p * p - 1
    assert len({pt.c.coeffs for pt in census.points}) == distinct_c
    assert counts["frobenius"] <= 2 * distinct_c
    assert counts["products"] <= 2 * m * distinct_c


@pytest.mark.parametrize("p", (3, 5, 7))
def test_enumerate_fiber_work(monkeypatch, p):
    """m field products per c, for the multiplication-by-c map, not one per point."""
    enumerate_fiber.cache_clear()
    counts = _count_field_ops(monkeypatch)
    census = enumerate_fiber(p)
    assert census.total == (p * p - 1) * (p * p - p)
    assert counts["products"] <= census.field_degree * (p * p - 1)


@pytest.mark.parametrize("p", (11, 13))
def test_census_skipped_above_cap(p):
    census = enumerate_fiber(p)
    assert census.skipped
    assert census.points == ()
    assert "above the cap" in census.reason


def test_census_cap_override():
    small = enumerate_fiber(5, 1000)
    assert small.skipped


def test_census_above_the_default_cap():
    """p = 11 with the cap raised: a real census in GF(11^20), whose packed rows
    need 2-byte slots (2m(p-1)^2 = 4000)."""
    assert PackedRows(11, 20, 1).code == "H"
    out = run_verification(11, checks=("fiber",), max_field_size=11 ** 20)
    status = {c.name: (c.status, c.detail) for c in out.checks}
    assert status["fiber_census"] == ("pass", (
        "13200 fiber points enumerated in GF(11^20), equal to (p^2-1)p(p-1), "
        "every point re-verified"))
    assert status["component_structure"] == ("pass", (
        "ad-bc takes exactly 10 values, each with (p-1)-th power -2, each on 1320 points"))
    assert out.overall == "pass"


def test_census_field_is_one_object_per_field_whatever_the_cap():
    assert enumerate_fiber(5, 1 << 24).points[0].c.field is make_extension_field(5, 8)


@pytest.mark.parametrize(
    "p,expected",
    [
        (3, (2, 48, 24, 3, 49)),
        (5, (4, 480, 120, 10, 1081)),
        (7, (6, 2016, 336, 21, 6721)),
        (11, (10, 13200, 1320, 55, 71281)),
        (13, (12, 26208, 2184, 78, 168169)),
    ],
)
def test_component_stats(p, expected):
    stats = component_stats(p)
    got = (
        stats.components,
        stats.total_fiber,
        stats.degree,
        stats.genus_base,
        stats.genus_component,
    )
    assert got == expected


@pytest.mark.parametrize("p", PRIMES)
def test_hurwitz(p):
    stats = component_stats(p)
    assert hurwitz_consistent(stats)
    assert stats.total_fiber % stats.components == 0
    assert stats.total_fiber // stats.components == stats.degree


def test_census_one_point_short_fails_the_fiber_checks(monkeypatch):
    """A census off the formula fails fiber_census and component_structure;
    the report still carries the formula's stats and the run does not raise."""
    census = enumerate_fiber(3)
    short = CensusResult(3, 4, False, census.points[:-1], census.total - 1)
    monkeypatch.setattr(report, "enumerate_fiber", lambda p, cap: short)
    out = run_verification(3, checks=("fiber",))
    status = {c.name: (c.status, c.detail) for c in out.checks}
    assert status["fiber_census"][0] == "fail"
    assert "census total off the formula" in status["fiber_census"][1]
    assert status["component_structure"][0] == "fail"
    assert out.overall == "fail"
    assert out.stats == component_stats(3)
    assert (out.stats.total_fiber, out.stats.components, out.stats.degree) == (48, 2, 24)


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        component_stats(9)
    with pytest.raises(ValueError):
        enumerate_fiber(2)
