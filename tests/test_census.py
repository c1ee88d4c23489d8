import pytest
from fiber_reference import Embedding, reference_enumeration, reference_reverify

from syzcover import census as census_module
from syzcover.census import (
    CensusResult,
    FiberPoint,
    Presentation,
    component_stats,
    determinant_classes,
    enumerate_fiber,
    eta_field_degree,
    fiber_field_degree,
    hurwitz_consistent,
    kummer_presentation,
    reverify_census,
    verify_fiber_point,
)
from syzcover.gf import (
    GF,
    FieldElement,
    find_generator,
    is_prime,
    make_extension_field,
    solve_power_equation,
)
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


def _eta_criterion_scan(p):
    """Smallest k with (-2)^((p^k-1)/(p-1)) = 1 mod p, scanned directly."""
    a = (-2) % p
    for k in range(1, p):
        e = (p ** k - 1) // (p - 1)
        if pow(a, e % (p - 1), p) == 1:
            return k
    raise RuntimeError("no eta field found below degree p")


def _fiber_criterion_scan(p):
    """Smallest even m with (p^2-1) | (p^m-1) and 2^((p^m-1)/(p^2-1)) = 1 mod p."""
    n = p * p - 1
    for m in range(2, 4 * p, 2):
        qm1 = p ** m - 1
        if qm1 % n:
            continue
        if pow(2, (qm1 // n) % (p - 1), p) == 1:
            return m
    raise RuntimeError("no census field found")


def _order_by_walk(a, p):
    """The multiplicative order of a mod p by its powers a, a^2, ... up to 1."""
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


def test_order_by_factorisation_equals_the_walk():
    """ord_p(2) and ord_p(-2) from the prime factors of p - 1 equal the walk
    through the powers at every odd prime below 5000."""
    for p in filter(is_prime, range(3, 5000, 2)):
        for a in (2, -2):
            assert census_module._order(a, p) == _order_by_walk(a, p), (a, p)


def test_orders_match_the_criterion_scans():
    """m = 2 ord_p(2) and k = ord_p(-2) agree with the scans they replaced at
    every odd prime below 500."""
    for p in filter(is_prime, range(3, 500, 2)):
        assert fiber_field_degree(p) == _fiber_criterion_scan(p) == 2 * census_module._order(2, p)
        assert eta_field_degree(p) == _eta_criterion_scan(p) == census_module._order(-2, p)


@pytest.mark.parametrize("p", PRIMES + (17, 19, 23))
def test_kummer_presentation(p):
    """gamma is the first element of GF(p^2) whose (p^2-1)/o-th power is 2,
    eta its (p-1)/o-th power, and theta^(p^2) = 2 theta: eta^(p+1) = 2."""
    o, gamma, eta = kummer_presentation(p)
    field = make_extension_field(p, 2)
    assert 2 * o == fiber_field_degree(p) and pow(2, o, p) == 1
    assert gamma.field is field
    assert [g for g in field.elements() if g ** ((p * p - 1) // o) == 2][0] == gamma
    assert eta == gamma ** ((p - 1) // o)
    assert eta ** (p + 1) == 2


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
    embed = Embedding(p).point
    assert {embed(pt) for pt in enumerate_fiber(p).points} == set(_walk_census_points(p))


def test_corrupted_frobenius_matrix_fails_census():
    """Every one-entry corruption of GF(p^2)'s cached Frobenius matrix, which
    the Kummer Frobenius applies to theta-coefficients, fails fiber_census by
    the matrix's own certification.  The raw equations catch every one at
    p = 3 and 5 as well; at p = 7 they miss entry (1, 0), and entry (0, 1)
    is caught by Frob(ad - bc) = -2 (ad - bc) alone."""
    missed = []
    for p in (3, 5, 7):
        field = make_extension_field(p, 2)
        columns = field.frobenius_columns()
        try:
            for i in range(field.m):
                for j in range(field.m):
                    bad = [list(col) for col in columns]
                    bad[i][j] = (bad[i][j] + 1) % p
                    field._frobenius = tuple(tuple(col) for col in bad)
                    report = run_verification(p, checks=("fiber",))
                    assert report.checks[0].name == "fiber_census"
                    assert report.checks[0].status == "fail", (p, i, j)
                    assert "Frobenius matrix not certified" in report.checks[0].detail
                    assert report.overall == "fail", (p, i, j)
                    if reverify_census(enumerate_fiber(p))[0]:
                        missed.append((p, i, j))
        finally:
            field._frobenius = columns
        assert run_verification(p, checks=("fiber",)).overall == "pass"
    assert missed == [(7, 1, 0)]


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
    embed = Embedding(3).point
    assert {(embed(pt).c.coeffs, embed(pt).d.coeffs) for pt in census.points} == brute
    assert len(brute) == 48


@pytest.mark.parametrize("p", (3, 5, 7))
def test_every_point_reverified(p):
    census = enumerate_fiber(p)
    for pt in census.points:
        assert verify_fiber_point(pt)


def test_reverification_embeds_no_int(monkeypatch):
    # 2 * one, 2 * t and -2 * k scale coefficients; they build no field(k)
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
        z = pt.d * pt.c.inverse()
        assert z ** n == F.one
        assert z ** (p - 1) != F.one
        fibers.setdefault(z.coeffs, 0)
        fibers[z.coeffs] += 1
    assert len(fibers) == n - (p - 1)
    assert set(fibers.values()) == {n}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_determinant_classes(p):
    """ad - bc takes exactly p-1 values, each on a full component's worth;
    a key y is the theta^2-coefficient, and (y theta^2)^(p-1) is
    y^(p-1) gamma^(2(p-1)/o)."""
    census = enumerate_fiber(p)
    F = census.points[0].c.field
    o, gamma, _eta = kummer_presentation(p)
    classes = determinant_classes(census)
    assert len(classes) == p - 1
    degree = p * (p * p - 1)
    assert all(len(v) == degree for v in classes.values())
    for coeffs in classes:
        delta = F.element(coeffs)
        assert delta ** (p - 1) * gamma ** (2 * (p - 1) // o) == F(-2)


def _determinant_key(pt):
    """The theta^2-coefficient of ad - bc, eta (c^p d - c d^p), by plain powers."""
    p = pt.c.field.p
    eta = kummer_presentation(p).eta
    return (eta * (pt.c ** p * pt.d - pt.c * pt.d ** p)).coeffs


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reverify_census_classes_and_verdict(p):
    """The one pass groups points by the theta^2-coefficient of ad - bc,
    computed point by point, and agrees with verify_fiber_point."""
    census = enumerate_fiber(p)
    verified, classes = reverify_census(census)
    expected = {}
    for pt in census.points:
        expected.setdefault(_determinant_key(pt), []).append(pt)
    assert classes == expected
    assert verified is all(verify_fiber_point(pt) for pt in census.points) is True


def _same_outcome(census):
    """reverify_census and the GF(p^m) reference, run on the embedded points,
    agree on the verdict and on the classes (keys and members, in order);
    returns the verdict."""
    embedding = Embedding(census.prime)
    verified, classes = reverify_census(census)
    expected_ok, expected = reference_reverify([embedding.point(pt) for pt in census.points])
    assert verified is expected_ok
    assert [embedding.key(key) for key in classes] == list(expected)
    assert [list(map(embedding.point, v)) for v in classes.values()] == list(expected.values())
    return verified


def _with_points(census, points):
    return CensusResult(census.prime, census.field_degree, False, tuple(points), len(points))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_bulk_census_matches_reference(p):
    """The Kummer census embeds onto the GF(p^m) linear-kernel census, and
    each of its classes maps into one class of the reference."""
    census = enumerate_fiber(p)
    embedding = Embedding(p)
    images = [embedding.point(pt) for pt in census.points]
    assert len(set(images)) == len(images)
    assert set(images) == set(reference_enumeration(p))
    assert _same_outcome(census) is True


@pytest.mark.parametrize("p", (11, 13))
def test_raised_cap_census_matches_component_stats(p):
    census = enumerate_fiber(p, p ** fiber_field_degree(p))
    stats = component_stats(p)
    verified, classes = reverify_census(census)
    assert verified
    assert census.total == len(set(census.points)) == stats.total_fiber
    assert len(classes) == stats.components
    assert {len(v) for v in classes.values()} == {stats.degree}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_bulk_reverification_groups_scattered_c(p):
    """Points sharing a c need not sit in one run."""
    points = enumerate_fiber(p).points
    scattered = points[1::2] + points[::-2]
    assert _same_outcome(_with_points(enumerate_fiber(p), scattered)) is True


@pytest.mark.parametrize("p", (3, 5, 7))
def test_dense_census_determinants(p):
    """Points whose coordinates are all p - 1 (and, for a second c and d, every
    other one): the keys from the 2 x 2 matrix must be the point-by-point
    theta^2-coefficients of ad - bc."""
    census = enumerate_fiber(p)
    field = census.points[0].c.field
    top = field.element([p - 1] * field.m)
    mixed = field.element([p - 1, 0])
    points = [FiberPoint(top, top), FiberPoint(top, mixed), FiberPoint(mixed, top)] * 7
    _verified, classes = reverify_census(_with_points(census, points))
    expected = {}
    for pt in points:
        expected.setdefault(_determinant_key(pt), []).append(pt)
    assert list(classes.items()) == list(expected.items())


def test_empty_census_verifies():
    assert reverify_census(CensusResult(5, 8, False, (), 0)) == (True, {})


def _bump(pt):
    """The point with coefficient 0 of d raised by 1: d + theta, still on
    Frob^2(d) = 2d, so a fiber point again unless (d + 1)/c lies in F_p."""
    coeffs = pt.d.coeffs
    field = pt.d.field
    return FiberPoint(pt.c, FieldElement(field, ((coeffs[0] + 1) % field.p,) + coeffs[1:]))


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("where", ("first", "last", "run_end", "run_start", "zero", "scalar"))
def test_mutated_point_fails_reverification(monkeypatch, p, where):
    """A point off the equations fails its re-verification, and a bumped d that
    is again a fiber point duplicates the point that holds it; either way
    fiber_census fails and names the problem."""
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
    verified = _same_outcome(_with_points(census, points))
    assert verified is (where not in ("zero", "scalar"))
    problem = "a fiber point is listed twice" if verified else "point re-verification failed"
    assert _fiber_census_status(monkeypatch, p, lambda _points: points) == ("fail", problem)


def _fiber_census_status(monkeypatch, p, corrupt):
    """The fiber_census record of a run on a census whose points corrupt() altered;
    reverify_census agrees with the reference on them."""
    census = enumerate_fiber(p)
    bad = CensusResult(p, census.field_degree, False, tuple(corrupt(census.points)), census.total)
    _same_outcome(bad)
    monkeypatch.setattr(census_module, "enumerate_fiber", lambda p, cap: bad)
    out = run_verification(p, checks=("fiber",))
    return {c.name: (c.status, c.detail) for c in out.checks}["fiber_census"]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_shared_c_fails_census(monkeypatch, p):
    """One c, shared by p^2 - p points, moved to c + 1: c + theta is again on
    Frob^2(c) = 2c, and since the run's d are 1 times the ratios z outside
    F_p, every moved point duplicates a point of the run of c + 1 = 2."""

    def corrupt(points):
        c = points[0].c
        moved = c + 1
        shared = [pt for pt in points if pt.c is c]
        assert len(shared) == p * p - p
        return [FiberPoint(moved, pt.d) if pt.c is c else pt for pt in points]

    assert _fiber_census_status(monkeypatch, p, corrupt) == (
        "fail", "a fiber point is listed twice")


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_single_d_fails_census(monkeypatch, p):
    """d + 1 in the middle of the census: at p = 5 (d + 1)/c lies in F_p, so
    ad - bc = 0; at p = 3 and 7 it is a fiber point listed twice."""

    def corrupt(points):
        k = len(points) // 2
        pt = points[k]
        return points[:k] + (FiberPoint(pt.c, pt.d + 1),) + points[k + 1:]

    problem = "point re-verification failed" if p == 5 else "a fiber point is listed twice"
    assert _fiber_census_status(monkeypatch, p, corrupt) == ("fail", problem)


@pytest.mark.parametrize("p", (3, 5))
def test_duplicate_point_fails_census(monkeypatch, p):
    """One point replaced by a copy of another point in its class: every point
    verifies and the classes keep their sizes but one, so only the count of
    distinct points shows it."""

    def corrupt(points):
        verified, classes = reverify_census(enumerate_fiber(p))
        assert verified
        first, second = next(iter(classes.values()))[:2]
        return tuple(first if pt == second else pt for pt in points)

    assert _fiber_census_status(monkeypatch, p, corrupt) == (
        "fail", "a fiber point is listed twice")


def _with_presentation(monkeypatch, p, gamma, eta):
    o = kummer_presentation(p).order
    monkeypatch.setattr(census_module, "kummer_presentation", lambda q: Presentation(o, gamma, eta))


def _norm_one_unit(p):
    """The first u of GF(p^2) with u^(p+1) = 1, u != 1 and u != -1."""
    field = make_extension_field(p, 2)
    return next(u for u in field.elements() if u ** (p + 1) == 1 and u not in (1, p - 1))


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_wrong_presentation_fails_census(monkeypatch, p):
    """A gamma whose (p^2-1)/o-th power is another o-th root of unity (with its
    own eta or the true one), and eta times a unit of norm 1 all fail
    fiber_census.  The raw equations catch exactly the etas with
    eta^(p+1) != 2; eta times a unit of norm 1 passes them all."""
    o, gamma, eta = kummer_presentation(p)
    field = gamma.field
    e = (p * p - 1) // o
    wrong = next(g for g in field.elements() if g and g ** e != 2)
    cap = p ** fiber_field_degree(p)
    for bad_gamma, bad_eta in (
        (wrong, wrong ** ((p - 1) // o)),
        (wrong, eta),
        (gamma, eta * _norm_one_unit(p)),
    ):
        with monkeypatch.context() as patch:
            _with_presentation(patch, p, bad_gamma, bad_eta)
            out = run_verification(p, checks=("fiber",), max_field_size=cap)
            verified, _classes = reverify_census(enumerate_fiber(p, cap))
        assert verified is (bad_eta ** (p + 1) == 2)
        status, detail = {c.name: (c.status, c.detail) for c in out.checks}["fiber_census"]
        assert status == "fail", (p, bad_gamma, bad_eta)
        assert "Kummer presentation not certified" in detail
    assert run_verification(p, checks=("fiber",), max_field_size=cap).overall == "pass"


def _count_field_ops(monkeypatch):
    """Counts of Frobenius applications and of products of two field elements;
    scaling by an int (2d, -2(ad - bc)) is not a field product."""
    counts = {"frobenius": 0, "products": 0}
    p_power, mul = FieldElement.p_power, FieldElement.__mul__

    def counted_frobenius(self):
        counts["frobenius"] += 1
        return p_power(self)

    def counted_mul(self, other):
        if isinstance(other, FieldElement):
            counts["products"] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "p_power", counted_frobenius)
    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    return counts


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_reverify_census_work(monkeypatch, p):
    """At most 5 Frobenius applications and 7 field products of GF(p^2) per
    call, whatever p and however many points: the certificate is checked
    once on a basis, and each point costs int arithmetic only.  GF(p^2)'s
    Frobenius matrix and the presentation are built before the count, so
    the bound holds when the test runs alone."""
    census = enumerate_fiber(p, p ** fiber_field_degree(p))
    make_extension_field(p, 2).frobenius_columns()
    kummer_presentation(p)
    counts = _count_field_ops(monkeypatch)
    verified, _classes = reverify_census(census)
    assert verified
    assert census.total == component_stats(p).total_fiber
    assert len({pt.c.coeffs for pt in census.points}) == p * p - 1
    assert counts["frobenius"] <= 5
    assert counts["products"] <= 7


@pytest.mark.parametrize("p", (3, 5, 7))
def test_enumerate_fiber_work(monkeypatch, p):
    """One GF(p^2) product per point, d = z*c, and no Frobenius application."""
    counts = _count_field_ops(monkeypatch)
    census = enumerate_fiber(p)
    assert census.total == (p * p - 1) * (p * p - p)
    assert counts == {"frobenius": 0, "products": census.total}


@pytest.mark.parametrize("p", (11, 13))
def test_census_skipped_above_cap(p):
    census = enumerate_fiber(p)
    assert census.skipped
    assert census.points == ()
    assert census.reason == f"census field GF({p}^{census.field_degree}) is larger than the cap 4194304"


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_census_cap_decision_equals_the_field_order_comparison(p):
    """Also at the caps 2^m - 1 and 2^m, where cap.bit_length() is m and
    m + 1: the census compares p^min(m, cap.bit_length()) with the cap."""
    m = fiber_field_degree(p)
    order = p ** m
    for cap in (order - 1, order, order + 1, 2 ** m - 1, 2 ** m):
        assert enumerate_fiber(p, cap).skipped == (order > cap), cap


@pytest.mark.parametrize("p, m", ((757, 1512), (907, 1812)))
def test_fiber_checks_skip_where_the_field_order_has_too_many_digits(p, m):
    """p^m has more than 4300 digits here, more than Python turns into a
    string; the skip text names GF(p^m) and the cap only."""
    records = run_verification(p, ("fiber",)).checks
    assert [(r.name, r.status, r.detail) for r in records[:2]] == [
        ("fiber_census", "skipped", f"census field GF({p}^{m}) is larger than the cap 4194304"),
        ("component_structure", "skipped", "no census to tabulate"),
    ]
    assert records[2].name == "genus_hurwitz" and records[2].status == "pass"


def test_census_skip_at_a_large_prime_names_the_degree_and_the_cap():
    """At p = 1000003, where 2 has order p - 1, the census skips with the
    field GF(p^(2(p-1))) and the default cap named, and no p^m formed."""
    assert enumerate_fiber(1000003) == CensusResult(
        1000003, 2000004, True, (), 0,
        "census field GF(1000003^2000004) is larger than the cap 4194304")


def test_census_cap_override():
    small = enumerate_fiber(5, 1000)
    assert small.skipped


def test_census_above_the_default_cap():
    """p = 11 with the cap raised: a real census of GF(11^20), held as
    GF(11^2)[theta]/(theta^10 - gamma)."""
    out = run_verification(11, checks=("fiber",), max_field_size=11 ** 20)
    status = {c.name: (c.status, c.detail) for c in out.checks}
    assert status["fiber_census"] == ("pass", (
        "13200 fiber points enumerated in GF(11^20), equal to (p^2-1)p(p-1), "
        "every point re-verified"))
    assert status["component_structure"] == ("pass", (
        "ad-bc takes exactly 10 values, each with (p-1)-th power -2, each on 1320 points"))
    assert out.overall == "pass"


def test_census_field_is_one_object_per_field_whatever_the_cap():
    assert enumerate_fiber(5, 1 << 24).points[0].c.field is make_extension_field(5, 2)


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
    monkeypatch.setattr(census_module, "enumerate_fiber", lambda p, cap: short)
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


@pytest.mark.parametrize("p, cap", ((3, 81), (5, 1 << 22), (3, 80), (11, 1 << 22)))
def test_fiber_checks_yield_the_three_checks_in_order(p, cap):
    """Below the cap (GF(3^4) at 81 and GF(5^8)) every outcome carries a
    verdict, and above it (at 80 and for GF(11^20)) the first two carry the
    census's skip reason; all of them hold."""
    census = enumerate_fiber(p, cap)
    outcomes = list(census_module.fiber_checks(p, cap, component_stats(p)))
    assert [name for name, _ in outcomes] == ["fiber_census", "component_structure", "genus_hurwitz"]
    reasons = [census.reason, "no census to tabulate"] if census.skipped else ["", ""]
    assert [outcome.skipped for _, outcome in outcomes] == [*reasons, ""]
    assert all(outcome.ok and not outcome.claims for _, outcome in outcomes)
