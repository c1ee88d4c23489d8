"""The fiber census in GF(p^m) itself, one field operation at a time: the
reference for the GF(p^2) theta-coefficient census of syzcover.census.

The c are the nonzero elements of ker(Frob^2 - 2) and the ratios d/c are
ker(Frob^2 - 1) minus ker(Frob - 1), each found by Gaussian elimination
over F_p (linear_kernel).  A point here is the pair (c, d) of GF(p^m)
elements.  Embedding maps the census's rows of theta-coefficients into the
same field, so the two can be compared point for point.
"""

import itertools

from syzcover.census import fiber_field_degree, frobenius_twist
from syzcover.gf import FieldElement, make_extension_field


def linear_kernel(field, fn) -> tuple:
    """Every x with fn(x) == 0, for an F_p-linear map fn on the field.

    The matrix of fn on the power basis is brought to reduced row echelon
    form over F_p; the kernel is every F_p-combination of its null basis,
    so it has p**k elements for a k-dimensional kernel, zero included.
    """
    p, m = field.p, field.m
    images = [fn(field.element([0] * i + [1])).coeffs for i in range(m)]
    rows = [[images[col][row] for col in range(m)] for row in range(m)]
    pivots = []  # pivot column of each reduced row, in row order
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in range(m):
        if free in pivots:
            continue
        vec = [0] * m
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][free]) % p
        basis.append(vec)
    return tuple(
        FieldElement(field, tuple(
            sum(a * vec[j] for a, vec in zip(combo, basis)) % p for j in range(m)
        ))
        for combo in itertools.product(range(p), repeat=len(basis))
    )


def row_elements(p, row):
    """The theta-coefficients (c, d) in GF(p^2) of the census row (c0, c1, d0, d1)."""
    field = make_extension_field(p, 2)
    return field.element(row[:2]), field.element(row[2:])


def census_field(p):
    return make_extension_field(p, fiber_field_degree(p))


def reference_enumeration(p):
    """The fiber points of GF(p^m), c then z in index order, one product z * c each."""
    field = census_field(p)
    c_solutions = [
        c for c in linear_kernel(field, lambda x: x.p_power().p_power() - 2 * x) if c
    ]
    admissible = [
        z for z in linear_kernel(field, lambda x: x.p_power().p_power() - x)
        if z.p_power() != z
    ]
    admissible.sort(key=lambda e: e.index)
    return tuple(
        (c, z * c)
        for c in sorted(c_solutions, key=lambda e: e.index)
        for z in admissible
    )


def _reference_c_image(c):
    cp = c.p_power()
    return cp, not c.is_zero() and cp.p_power() == 2 * c


def _reference_point_image(c, d, cp):
    dp = d.p_power()
    det = cp * d - c * dp
    return det, (not d.is_zero() and dp.p_power() == 2 * d
                 and not det.is_zero() and det.p_power() == -2 * det)


def reference_reverify(points):
    """(every point verified, points grouped by ad - bc in point order), for
    points of GF(p^m), one field operation at a time."""
    distinct = {c.coeffs: c for c, _d in points}
    images = {key: _reference_c_image(c) for key, c in distinct.items()}
    ok = all(c_ok for _cp, c_ok in images.values())
    classes = {}
    for pt in points:
        c, d = pt
        det, d_ok = _reference_point_image(c, d, images[c.coeffs][0])
        ok = ok and d_ok
        classes.setdefault(det.coeffs, []).append(pt)
    return ok, classes


class Embedding:
    """GF(p^2) theta inside GF(p^m), theta^(p-1) = eta = frobenius_twist(p).

    iota sends t to the first root, in index order, of GF(p^2)'s modulus in
    ker(Frob^2 - 1), and theta is the first element of ker(Frob^2 - 2) with
    theta^(p-1) = iota(eta).
    """

    def __init__(self, p):
        field = census_field(p)
        small = make_extension_field(p, 2)
        self.field, self.small = field, small
        subfield = sorted(
            linear_kernel(field, lambda x: x.p_power().p_power() - x), key=lambda e: e.index)
        c0, c1, _one = small.modulus
        self.root = next(r for r in subfield if r * r + c1 * r + c0 == field.zero)
        eta = self.iota(frobenius_twist(p))
        kernel = sorted(
            linear_kernel(field, lambda x: x.p_power().p_power() - 2 * x),
            key=lambda e: e.index)
        self.theta = next(t for t in kernel if t ** (p - 1) == eta)

    def iota(self, x):
        x0, x1 = x.coeffs
        return x0 * self.field.one + x1 * self.root

    def point(self, row):
        """The point (c theta, d theta) of GF(p^m), for the census row of c and d."""
        c, d = row_elements(self.field.p, row)
        return self.iota(c) * self.theta, self.iota(d) * self.theta

    def key(self, key):
        """ad - bc in GF(p^m), from its theta^2-coefficient."""
        return (self.iota(self.small.element(key)) * self.theta * self.theta).coeffs
