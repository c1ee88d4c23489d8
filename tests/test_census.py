import pytest
from fiber_reference import Embedding, reference_enumeration, reference_reverify, row_elements

from syzcover import census as census_module
from syzcover import report as report_module
from syzcover.census import (
    CensusResult,
    component_stats,
    determinant_classes,
    enumerate_fiber,
    eta_field_degree,
    fiber_field_degree,
    frobenius_twist,
    hurwitz_consistent,
    reverify_census,
    verify_fiber_point,
)
from syzcover.cover import build_cover_data
from syzcover.curve import CurvePoint, norm_root
from syzcover.gf import (
    GF,
    FieldElement,
    find_generator,
    is_prime,
    make_extension_field,
    solve_power_equation,
)
from syzcover.report import render_json, run_verification

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


@pytest.mark.parametrize("p", PRIMES + (17, 19, 23, 101, 1009, 100003, 1000003))
def test_frobenius_twist_is_the_first_norm_root_of_two(p):
    """eta = root(2, 0) of GF(p^2), so theta^(p-1) = eta gives theta^(p^2) =
    eta^(p+1) theta = 2 theta."""
    field = make_extension_field(p, 2)
    eta = frobenius_twist(p)
    assert eta.field is field
    assert eta == norm_root(field)(2, 0)
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
        (c, z * c)
        for c in sorted(c_solutions, key=lambda e: e.index)
        for z in sorted(admissible, key=lambda e: e.index)
    )


@pytest.mark.parametrize("p", (3, 5, 7))
def test_census_equals_walk_reference(p):
    embed = Embedding(p).point
    assert {embed(row) for row in enumerate_fiber(p).points} == set(_walk_census_points(p))


def test_corrupted_frobenius_matrix_fails_census():
    """Every one-entry corruption of GF(p^2)'s cached Frobenius matrix, which
    the twisted Frobenius applies to theta-coefficients, fails fiber_census by
    the matrix's own certification, with the census enumerated (p <= 7) or
    not (p = 11), and the run does not raise although eta, a norm root, is
    not cached.  With eta made from the true matrix, the raw equations catch
    every one at p = 3, 5 and 11 as well; at p = 7 they miss entry (1, 0),
    and entry (0, 1) is caught by Frob(ad - bc) = -2 (ad - bc) alone."""
    missed = []
    for p in (3, 5, 7, 11):
        frobenius_twist.cache_clear()
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
                    field._frobenius = columns
                    frobenius_twist(p)
                    field._frobenius = tuple(tuple(col) for col in bad)
                    if reverify_census(enumerate_fiber(p))[0]:
                        missed.append((p, i, j))
                    frobenius_twist.cache_clear()
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
    assert {tuple(x.coeffs for x in embed(row)) for row in census.points} == brute
    assert len(brute) == 48


@pytest.mark.parametrize("p", (3, 5, 7))
def test_every_point_reverified(p):
    census = enumerate_fiber(p)
    for row in census.points:
        assert verify_fiber_point(p, row)


def test_reverification_embeds_no_int(monkeypatch):
    # 2 * one, 2 * t and -2 * k scale coefficients; they build no field(k)
    row = enumerate_fiber(5).points[0]
    embedded = []
    call = GF.__call__

    def counted(self, value):
        embedded.append(value)
        return call(self, value)

    monkeypatch.setattr(GF, "__call__", counted)
    assert verify_fiber_point(5, row)
    assert embedded == []


def test_reverification_rejects_bad_point():
    census = enumerate_fiber(3)
    good = census.points[0]
    bad = good[:2] + good[:2]  # d/c = 1 violates the cross equation
    assert not verify_fiber_point(3, bad)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_quotient_structure(p):
    """d = zeta*c with zeta in the (p^2-1)-torsion minus (p-1)-torsion."""
    census = enumerate_fiber(p)
    F = make_extension_field(p, 2)
    n = p * p - 1
    fibers = {}
    for row in census.points:
        c, d = row_elements(p, row)
        z = d * c ** -1
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
    y^(p-1) eta^2."""
    census = enumerate_fiber(p)
    F = make_extension_field(p, 2)
    eta = frobenius_twist(p)
    classes = determinant_classes(census)
    assert len(classes) == p - 1
    degree = p * (p * p - 1)
    assert all(len(v) == degree for v in classes.values())
    for coeffs in classes:
        delta = F.element(coeffs)
        assert delta ** (p - 1) * eta * eta == F(-2)


def _determinant_key(p, row):
    """The theta^2-coefficient of ad - bc, eta (c^p d - c d^p), by plain powers."""
    c, d = row_elements(p, row)
    return (frobenius_twist(p) * (c ** p * d - c * d ** p)).coeffs


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reverify_census_classes_and_verdict(p):
    """The one pass groups points by the theta^2-coefficient of ad - bc,
    computed point by point, and agrees with verify_fiber_point."""
    census = enumerate_fiber(p)
    verified, classes = reverify_census(census)
    expected = {}
    for row in census.points:
        expected.setdefault(_determinant_key(p, row), []).append(row)
    assert classes == expected
    assert verified is all(verify_fiber_point(p, row) for row in census.points) is True


def _same_outcome(census):
    """reverify_census and the GF(p^m) reference, run on the embedded points,
    agree on the verdict and on the classes (keys and members, in order);
    returns the verdict."""
    embedding = Embedding(census.prime)
    verified, classes = reverify_census(census)
    expected_ok, expected = reference_reverify([embedding.point(row) for row in census.points])
    assert verified is expected_ok
    assert [embedding.key(key) for key in classes] == list(expected)
    assert [list(map(embedding.point, v)) for v in classes.values()] == list(expected.values())
    return verified


def _with_points(census, points):
    return CensusResult(census.prime, tuple(points), len(points))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_bulk_census_matches_reference(p):
    """The theta-coefficient census embeds onto the GF(p^m) linear-kernel census, and
    each of its classes maps into one class of the reference."""
    census = enumerate_fiber(p)
    embedding = Embedding(p)
    images = [embedding.point(row) for row in census.points]
    assert len(set(images)) == len(images)
    assert set(images) == set(reference_enumeration(p))
    assert _same_outcome(census) is True


@pytest.mark.parametrize("p", (11, 13))
def test_raised_cap_census_matches_component_stats(p):
    census = enumerate_fiber(p)
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
    top, mixed = (p - 1, p - 1), (p - 1, 0)
    points = [top + top, top + mixed, mixed + top] * 7
    _verified, classes = reverify_census(_with_points(census, points))
    expected = {}
    for row in points:
        expected.setdefault(_determinant_key(p, row), []).append(row)
    assert list(classes.items()) == list(expected.items())


def test_empty_census_verifies():
    assert reverify_census(CensusResult(5, (), 0)) == (True, {})


def _bump(p, row):
    """The point with coefficient 0 of d raised by 1: d + theta, still on
    Frob^2(d) = 2d, so a fiber point again unless (d + 1)/c lies in F_p."""
    c0, c1, d0, d1 = row
    return c0, c1, (d0 + 1) % p, d1


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("where", ("first", "last", "run_end", "run_start", "zero", "scalar"))
def test_mutated_point_fails_reverification(monkeypatch, p, where):
    """A point off the equations fails its re-verification, and a bumped d that
    is again a fiber point duplicates the point that holds it; either way
    fiber_census fails and names the problem."""
    census = enumerate_fiber(p)
    points = list(census.points)
    run = p * p - p  # points per c, in runs from enumerate_fiber
    assert points[run - 1][:2] != points[run][:2]
    k = {"first": 0, "last": -1, "run_end": run - 1, "run_start": run}.get(where, len(points) // 3)
    row = points[k]
    c0, c1 = row[:2]
    if where == "zero":
        points[k] = (c0, c1, 0, 0)
    elif where == "scalar":  # z = 2 in F_p: d's own equation holds, but ad - bc = 0
        points[k] = (c0, c1, 2 * c0 % p, 2 * c1 % p)
    else:
        points[k] = _bump(p, row)
    verified = _same_outcome(_with_points(census, points))
    assert verified is (where not in ("zero", "scalar"))
    problem = "a fiber point is listed twice" if verified else "point re-verification failed"
    assert _fiber_census_status(monkeypatch, p, lambda _points: points) == ("fail", problem)


def _fiber_census_status(monkeypatch, p, corrupt):
    """The fiber_census record of a run on a census whose points corrupt() altered;
    reverify_census agrees with the reference on them."""
    census = enumerate_fiber(p)
    bad = CensusResult(p, tuple(corrupt(census.points)), census.total)
    _same_outcome(bad)
    monkeypatch.setattr(census_module, "enumerate_fiber", lambda p: bad)
    out = run_verification(p, checks=("fiber",))
    return {c.name: (c.status, c.detail) for c in out.checks}["fiber_census"]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_shared_c_fails_census(monkeypatch, p):
    """One c, shared by p^2 - p points, moved to c + 1: c + theta is again on
    Frob^2(c) = 2c, and since the run's d are 1 times the ratios z outside
    F_p, every moved point duplicates a point of the run of c + 1 = 2."""

    def corrupt(points):
        c = points[0][:2]
        moved = ((c[0] + 1) % p, c[1])
        shared = [row for row in points if row[:2] == c]
        assert len(shared) == p * p - p
        return [moved + row[2:] if row[:2] == c else row for row in points]

    assert _fiber_census_status(monkeypatch, p, corrupt) == (
        "fail", "a fiber point is listed twice")


@pytest.mark.parametrize("p", (3, 5, 7))
def test_corrupted_single_d_fails_census(monkeypatch, p):
    """d + 1 in the middle of the census: at p = 5 (d + 1)/c lies in F_p, so
    ad - bc = 0; at p = 3 and 7 it is a fiber point listed twice."""

    def corrupt(points):
        k = len(points) // 2
        return points[:k] + (_bump(p, points[k]),) + points[k + 1:]

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
        return tuple(first if row == second else row for row in points)

    assert _fiber_census_status(monkeypatch, p, corrupt) == (
        "fail", "a fiber point is listed twice")


@pytest.mark.parametrize("p", (3, 5, 7))
def test_every_twist_gives_the_same_fiber_report(monkeypatch, p):
    """Any eta of norm 2 is a valid twist: each of the p + 1 roots of
    x^(p+1) = 2 gives the same fiber report, byte for byte."""
    expected = render_json(run_verification(p, ("fiber",)))
    root = norm_root(make_extension_field(p, 2))
    for j in range(p + 1):
        monkeypatch.setattr(census_module, "frobenius_twist", lambda q, eta=root(2, j): eta)
        assert render_json(run_verification(p, ("fiber",))) == expected, j


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101))
def test_twist_off_norm_two_fails_census(monkeypatch, p):
    """An eta of any other norm c, the roots of x^(p+1) = c for c != 2,
    fails fiber_census by the basis certificate Frob^2 = 2, with the census
    enumerated (p <= 7) or not (p >= 11)."""
    root = norm_root(make_extension_field(p, 2))
    for c in range(1, p):
        if c == 2:
            continue
        monkeypatch.setattr(census_module, "frobenius_twist", lambda q, eta=root(c, 0): eta)
        out = run_verification(p, checks=("fiber",))
        status = {r.name: (r.status, r.detail) for r in out.checks}["fiber_census"]
        assert status == ("fail", "point re-verification failed"), c
    monkeypatch.undo()
    assert run_verification(p, checks=("fiber",)).overall == "pass"


@pytest.mark.parametrize("p", (11, 13, 101, 1009, 100003))
def test_empty_census_verifies_above_the_cap(p):
    """The census fiber_checks re-verifies above ENUMERATION_CAP, no point:
    the certificate alone, k != 0 included, holds."""
    assert reverify_census(CensusResult(p, (), 0)) == (True, {})


def test_certificate_without_points_requires_k_nonzero(monkeypatch):
    """With no point to file under the key (0, 0), only k = D(1, t) != 0
    rejects a degenerate Frobenius: with the identity matrix for Frob on
    GF(7^2) and eta = 3 (3^2 = 2), Frob^2 = 2 holds on {theta, t theta}, and
    Frob(k) eta^2 = -2k holds for k = 0.  With the true matrix, 3 is a
    valid twist (its norm 3^8 is 2)."""
    field = make_extension_field(7, 2)
    columns = field.frobenius_columns()
    eta, t = field(3), field.element([0, 1])
    monkeypatch.setattr(census_module, "frobenius_twist", lambda q: eta)
    try:
        field._frobenius = ((1, 0), (0, 1))
        assert (t.p_power() * eta).p_power() * eta == 2 * t
        assert eta * t - t.p_power() * eta == 0  # k = F(1) t - F(t)
        assert census_module._reverify(7, ()) == (False, {})
    finally:
        field._frobenius = columns
    assert census_module._reverify(7, ()) == (True, {})


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
    Frobenius matrix and the twist eta are built before the count, so the
    bound holds when the test runs alone."""
    census = enumerate_fiber(p)
    make_extension_field(p, 2).frobenius_columns()
    frobenius_twist(p)
    counts = _count_field_ops(monkeypatch)
    verified, _classes = reverify_census(census)
    assert verified
    assert census.total == component_stats(p).total_fiber
    assert len({row[:2] for row in census.points}) == p * p - 1
    assert counts["frobenius"] <= 5
    assert counts["products"] <= 7


@pytest.mark.parametrize("p", (3, 5, 7, 1000003))
def test_reverify_makes_one_key_per_determinant_value(monkeypatch, p):
    """_reverify scales k = D(1, t) by an int once per distinct value of
    c0 d1 - c1 d0 among its points, besides the three int scalings of its
    certificate; so with no points, as at p = 1000003 here, it makes no key
    and does no work that grows with p."""
    points = enumerate_fiber(p).points if p < 11 else ()
    make_extension_field(p, 2).frobenius_columns()
    frobenius_twist(p)
    scalings, mul = [], FieldElement.__mul__

    def counted(self, other):
        if isinstance(other, int):
            scalings.append(other)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    verified, classes = census_module._reverify(p, points)
    deltas = {(c0 * d1 - c1 * d0) % p for c0, c1, d0, d1 in points}
    assert verified is True
    assert len(classes) == len(deltas) == (p - 1 if points else 0)
    assert len(scalings) == 3 + len(deltas)


@pytest.mark.parametrize("p", (13, 101, 1000003))
def test_frobenius_twist_work(monkeypatch, p):
    """eta from an empty cache costs at most 20 pows and 40 bit_length(p)
    products of GF(p^2), whatever ord_p(2) is (p - 1 at each p here).
    GF(p^2)'s Frobenius matrix is built before the count."""
    make_extension_field(p, 2).frobenius_columns()
    frobenius_twist.cache_clear()
    counts = _count_field_ops(monkeypatch)
    counts["pows"], pow_ = 0, FieldElement.__pow__

    def counted_pow(self, e):
        counts["pows"] += 1
        return pow_(self, e)

    monkeypatch.setattr(FieldElement, "__pow__", counted_pow)
    frobenius_twist(p)
    assert counts["pows"] <= 20
    assert counts["products"] <= 40 * p.bit_length()


@pytest.mark.parametrize("p", (3, 5, 7))
def test_enumerate_fiber_work(monkeypatch, p):
    """One GF(p^2) product per ratio z outside F_p, t*z, so p^2 - p per
    census; each d = c0 z + c1 (t z) is int arithmetic.  No Frobenius
    application."""
    counts = _count_field_ops(monkeypatch)
    census = enumerate_fiber(p)
    assert census.total == (p * p - 1) * (p * p - p)
    assert counts == {"frobenius": 0, "products": p * p - p}


CERTIFIED = (
    "{total} fiber points certified in GF({p}^{m}), equal to (p^2-1)p(p-1): "
    "the F_p-bases of GF(p^2) theta, not enumerated above {cap} points"
)


def _certified_text(p, cap=10000):
    stats = component_stats(p)
    return CERTIFIED.format(total=stats.total_fiber, p=p, m=stats.fiber_field_degree, cap=cap)


@pytest.mark.parametrize("p", (11, 13))
def test_census_skipped_above_cap(monkeypatch, p):
    """Above ENUMERATION_CAP points the fiber checks enumerate nothing, and
    the certificate gives the count."""

    def refuse(p):
        raise AssertionError("census enumerated above the cap")

    monkeypatch.setattr(census_module, "enumerate_fiber", refuse)
    stats = component_stats(p)
    assert stats.total_fiber > census_module.ENUMERATION_CAP
    outcomes = dict(census_module.fiber_checks(p, stats, census_module.CENSUS_PREMISE))
    assert outcomes["fiber_census"].detail == _certified_text(p)
    assert all(outcome.ok for outcome in outcomes.values())


def test_census_skip_at_a_large_prime_names_the_degree_and_the_cap():
    """At p = 1000003, where 2 has order p - 1, the certified count names the
    field GF(p^(2(p-1))) and the cap, and no p^m is formed."""
    record = run_verification(1000003, ("fiber",)).checks[0]
    assert (record.name, record.status) == ("fiber_census", "pass")
    assert record.detail == (
        "1000011000044000076000048 fiber points certified in GF(1000003^2000004), "
        "equal to (p^2-1)p(p-1): the F_p-bases of GF(p^2) theta, "
        "not enumerated above 10000 points")


def test_census_cap_override(monkeypatch):
    """The cap counts points: lowered to 1000 it still enumerates p = 5 (480
    points) and certifies p = 7 (2016) without enumerating; both pass."""
    monkeypatch.setattr(census_module, "ENUMERATION_CAP", 1000)
    five, seven = (run_verification(p, ("fiber",)) for p in (5, 7))
    assert five.checks[0].detail.startswith("480 fiber points enumerated in GF(5^8)")
    assert seven.checks[0].detail == _certified_text(7, cap=1000)
    assert five.overall == seven.overall == "pass"


def test_census_above_the_default_cap():
    """p = 11 is above the cap: the certificate gives 13200 points of GF(11^20),
    held as theta-coefficients in GF(11^2) with theta^10 = eta, in 10 classes."""
    out = run_verification(11, checks=("fiber",))
    status = {c.name: (c.status, c.detail) for c in out.checks}
    assert status["fiber_census"] == ("pass", (
        "13200 fiber points certified in GF(11^20), equal to (p^2-1)p(p-1): "
        "the F_p-bases of GF(p^2) theta, not enumerated above 10000 points"))
    assert status["component_structure"] == ("pass", (
        "ad-bc takes exactly 10 values, each with (p-1)-th power -2, each on 1320 points"))
    assert out.overall == "pass"


@pytest.mark.parametrize("p", (11, 13, 47, 101, 251, 503, 757))
def test_fiber_checks_pass_above_the_cap(p):
    """The certified fiber checks pass, with the certified texts; at 757,
    p^m has more digits than Python turns into a string."""
    records = run_verification(p, ("fiber",)).checks
    assert [(r.name, r.status) for r in records] == [
        ("fiber_census", "pass"), ("component_structure", "pass"), ("genus_hurwitz", "pass")]
    assert records[0].detail == _certified_text(p)


def test_census_field_is_one_object_per_field_whatever_the_cap(monkeypatch):
    """Above the cap too the census takes GF(p^2) from the field cache and
    builds no field of its own; its rows hold ints only."""
    make_extension_field(11, 2)
    built, init = [], GF.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GF, "__init__", counted)
    points = enumerate_fiber(11).points
    assert built == []
    assert {type(x) for row in points for x in row} == {int}


def _h_u_at_census_point(p):
    cd = build_cover_data(p)
    field = make_extension_field(p)
    base = CurvePoint(cd.ctx, (field.one, field.zero, field.one))
    return [[h.evaluate(base) for h in row] for row in cd.H_U]


@pytest.mark.parametrize("p", (3, 5, 13, 1000003))
def test_h_u_at_the_census_point_is_the_premise(p):
    """H_U(1 : 0 : 1) = [[0, 2], [1, 0]]: F(A) = H_U A there reads a = c^p,
    b = d^p, c^(p^2) = 2c, d^(p^2) = 2d, the census equations."""
    assert _h_u_at_census_point(p) == census_module.CENSUS_PREMISE == [[0, 2], [1, 0]]


@pytest.mark.parametrize("p", (3, 5, 13))
def test_mutated_h_u_fails_fiber_census(monkeypatch, p):
    """An H_U whose value at (1 : 0 : 1) is off the premise, one entry moved
    by a constant, fails fiber_census in a fiber run and in a full run."""
    build = report_module.build_cover_data
    for i, j in ((0, 1), (1, 0), (1, 1)):

        def mutated(p, catalog=None, i=i, j=j):
            cd = build(p, catalog)
            H = [list(row) for row in cd.H_U]
            H[i][j] = H[i][j] + 1
            return cd._replace(H_U=tuple(map(tuple, H)))

        monkeypatch.setattr(report_module, "build_cover_data", mutated)
        for checks in (("fiber",), "all"):
            out = run_verification(p, checks)
            status = {r.name: (r.status, r.detail) for r in out.checks}["fiber_census"]
            assert status == ("fail", "H_U(1 : 0 : 1) is not [[0, 2], [1, 0]]"), (i, j, checks)
            assert out.overall == "fail"
    monkeypatch.undo()
    assert run_verification(p, ("fiber",)).overall == "pass"


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
    short = CensusResult(3, census.points[:-1], census.total - 1)
    monkeypatch.setattr(census_module, "enumerate_fiber", lambda p: short)
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


@pytest.mark.parametrize(
    "p, cap", ((3, 81), (5, 1 << 22), (3, 80), (11, 1 << 22), (3, 48), (3, 47), (11, 10000))
)
def test_fiber_checks_yield_the_three_checks_in_order(monkeypatch, p, cap):
    """With the enumeration cap at cap, the census is enumerated exactly when
    the fiber has at most cap points (48 at p = 3, 13200 at p = 11), and
    either way every outcome carries a verdict and no claim, and all hold."""
    monkeypatch.setattr(census_module, "ENUMERATION_CAP", cap)
    stats = component_stats(p)
    outcomes = list(census_module.fiber_checks(p, stats, census_module.CENSUS_PREMISE))
    assert [name for name, _ in outcomes] == ["fiber_census", "component_structure", "genus_hurwitz"]
    assert [outcome.skipped for _, outcome in outcomes] == ["", "", ""]
    assert all(outcome.ok and not outcome.claims for _, outcome in outcomes)
    enumerated = f"{stats.total_fiber} fiber points enumerated in "
    assert outcomes[0][1].detail.startswith(enumerated) is (stats.total_fiber <= cap)
