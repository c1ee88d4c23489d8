"""Construction data for the etale cover and the identities certifying it.

On the degree-(p+1) curve the rank-2 bundle trivializes on the charts
where u (resp. w) is invertible.  The cover is glued from two polynomial
algebras, one per chart, each presented by the entries of F(A) * A^(-1)
minus a matrix H of localized functions, where F(A) raises the matrix
indeterminates to the p-th power.  H_U (H_W) expresses the chart's primed
frame in the p-th powers of its frame, and T is the change of frame
between the charts; all three are solved from the catalog's syzygy
frames.  Everything this module builds is exact: those matrices with
their frame certificates, the cocycle compatibility, the det-cleared
chart relations, the gluing substitution, and the determinant
computations that make the cover decompose.  Each check returns these
identities as claims, plus any structural problems it finds (relation
shapes, the w = 0 comparisons, the ideal-shift samples); the verdict is
derived from those alone.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice, repeat

from .curve import CurvePoint, LocalFraction, norm_roots
from .formal import FormalPolynomial
from .gf import GF, make_extension_field
from .matrices import adjugate, det, entrywise_p_power, mat, mat_mul
from .oracle import CheckOutcome, nonzero_claim, zero_claim
from .syz import GeneratorCatalog, build_catalog

U_VARS = ("a", "b", "c", "d")
W_VARS = ("alpha", "beta", "gamma", "delta")


# The cover's construction data for one prime:
#   ctx, catalog     the degree-(p+1) curve and the generator catalog;
#   T                transition matrix between the two frames;
#   H_U, H_W         chart-U and chart-W Frobenius comparison matrices;
#   A, B             chart-U indeterminates a, b; c, d and chart-W alpha, beta; gamma, delta;
#   frob_adj_U/W     F(A) * adj(A) and F(B) * adj(B);
#   relations_U/W    the four det-cleared relations of each chart (formal);
#   substitution     chart-U indeterminates in terms of chart-W ones.
CoverData = namedtuple(
    "CoverData",
    "ctx catalog T H_U H_W A B frob_adj_U frob_adj_W relations_U relations_W substitution",
)


def _formal_matrix(ctx, names):
    """The 2x2 matrix of formal indeterminates, names listed row by row."""
    a11, a12, a21, a22 = (FormalPolynomial.variable(ctx, names, n) for n in names)
    return mat([[a11, a12], [a21, a22]])


def _frobenius_adjugate(A):
    """F(A) * adj(A): the part of a chart's relations of degree p + 1."""
    return mat_mul(entrywise_p_power(A), adjugate(A))


def _chart_relations(ctx, A, frob_adj, H, clear_u: int, clear_w: int):
    """Det-cleared entries of F(A)*adj(A) - det(A)*H, listed row by row."""
    dA = det(A)
    rels = []
    for i in range(2):
        for j in range(2):
            rel = frob_adj[i][j] - dA * H[i][j]
            cleared = {e: c.mul_monomial(clear_u, clear_w) for e, c in rel.terms.items()}
            rels.append(FormalPolynomial(ctx, rel.vars, cleared))
    return tuple(rels)


def build_cover_data(p: int, catalog: GeneratorCatalog | None = None) -> CoverData:
    catalog = catalog or build_catalog(p)
    ctx = catalog.quad
    u, v, w = ctx.variables()
    T, h_u, h_w = (_solve_frame(*system) for system in _frame_systems(catalog))
    A, B = _formal_matrix(ctx, U_VARS), _formal_matrix(ctx, W_VARS)
    frob_adj_U, frob_adj_W = _frobenius_adjugate(A), _frobenius_adjugate(B)
    relations_U = _chart_relations(ctx, A, frob_adj_U, h_u, p + 1, 0)
    relations_W = _chart_relations(ctx, B, frob_adj_W, h_w, 0, p + 1)

    (alpha, beta), (gamma, delta) = B
    f = ctx.fraction
    substitution = {
        "a": gamma * f(-w, 1, 0),
        "b": delta * f(-w, 1, 0),
        "c": alpha * f(u, 0, 1) + gamma * f(v * v, 1, 1),
        "d": beta * f(u, 0, 1) + delta * f(v * v, 1, 1),
    }
    return CoverData(ctx, catalog, T, h_u, h_w, A, B, frob_adj_U, frob_adj_W, relations_U, relations_W, substitution)


def _frame_systems(cat: GeneratorCatalog):
    """Yield (targets, basis, i, k, chart) for T, H_U and H_W, in that order.

    Each matrix M has targets[j] = M[0][j] basis[0] + M[1][j] basis[1], in
    frames s/x (a triple's components over the chart's variable x: chart 0
    is u, 2 is w) and their p-th powers s^(p)/x^p; Cramer's rule solves it
    on components i and k.
    """
    def frame(label, chart):
        return [LocalFraction(cat.quad, a, int(chart == 0), int(chart == 2)) for a in cat[label].components]

    def p_frame(label, chart):
        return [x.p_power() for x in frame(label, chart)]

    u, w = 0, 2
    yield (frame("s2", w), frame("s3", w)), (frame("s1", u), frame("s2", u)), 1, 2, u
    yield (frame("s1'", u), frame("s2'", u)), (p_frame("s1", u), p_frame("s2", u)), 1, 2, u
    yield (frame("s2'", w), frame("s3'", w)), (p_frame("s2", w), p_frame("s3", w)), 0, 1, w


def _solve_frame(targets, basis, i: int, k: int, chart: int):
    """M of _frame_systems by Cramer's rule on components i and k.

    Their minor must be c x^n / (u^du w^dw), c != 0, x the chart's variable.
    Its numerator is compared with c x^n in normal form, c read at the first
    term of x^n, whose coefficient is 1 (w^n with n > p has several terms).
    Any other minor raises ValueError.
    """
    (b0, b1), ctx = basis, basis[0][i].ctx
    minor = b0[i] * b1[k] - b1[i] * b0[k]
    num, p, n = minor.num, ctx.p, max(minor.num.homogeneous_degree() or 0, 0)
    x_n = ctx.monomial(1, [n * (axis == chart) for axis in range(3)])
    c = num.terms.get(next(iter(x_n.terms)), 0)
    if not c or num != x_n * c:
        raise ValueError(f"frame minor {minor} is not a unit on the {ctx.names[chart]}-chart")
    inverse = ctx.monomial(pow(c, -1, p), (minor.du, 0, minor.dw))
    inverse = LocalFraction(ctx, inverse, n * (chart == 0), n * (chart == 2))
    columns = [((t[i] * b1[k] - b1[i] * t[k]) * inverse, (b0[i] * t[k] - t[i] * b0[k]) * inverse) for t in targets]
    return mat(zip(*columns))


def _frame_claims(name: str, M, targets, basis):
    """targets[j] = M[0][j] basis[0] + M[1][j] basis[1], claimed in all three components."""
    return [
        zero_claim(f"{name} col{j}[{i}]", targets[j][i] - (M[0][j] * basis[0][i] + M[1][j] * basis[1][i]))
        for j in range(2)
        for i in range(3)
    ]


def check_transition(cd: CoverData) -> CheckOutcome:
    """T against the frames: the w-chart frame s2/w, s3/w in terms of the
    u-chart frame s1/u, s2/u, in all three components, and det T = 1.

    build_cover_data solves T from two components; the third and the
    determinant carry the content.
    """
    targets, basis, *_ = next(_frame_systems(cd.catalog))
    claims = _frame_claims("transition frame", cd.T, targets, basis)
    claims.append(zero_claim("det T - 1", det(cd.T) - cd.ctx.fraction(1)))
    return CheckOutcome("transition matrix certified against the frames", "transition matrix mismatch", claims)


def check_base_change(cd: CoverData) -> CheckOutcome:
    """Columns of H_U (H_W) express the chart's primed frame in the p-th
    powers of its frame: s1', s2' over s1, s2 on the u-chart and s2', s3'
    over s2, s3 on the w-chart, in all three components; both determinants
    equal -2.
    """
    _, (targets_u, basis_u, *_), (targets_w, basis_w, *_) = _frame_systems(cd.catalog)
    claims = _frame_claims("base change u-chart", cd.H_U, targets_u, basis_u)
    claims += _frame_claims("base change w-chart", cd.H_W, targets_w, basis_w)
    for name, H in (("H_U", cd.H_U), ("H_W", cd.H_W)):
        claims.append(zero_claim(f"det {name} + 2", det(H) - cd.ctx.fraction(-2)))
    return CheckOutcome("frame comparison matrices certified, det = -2", "base change mismatch", claims)


def check_cocycle(cd: CoverData) -> CheckOutcome:
    """Compatibility on the overlap: H_U T = F(T) H_W, entry by entry.

    This is H_U = F(T) H_W T^(-1), because check_transition certifies
    det T = 1 in the same cover group.
    """
    lhs, rhs = mat_mul(cd.H_U, cd.T), mat_mul(entrywise_p_power(cd.T), cd.H_W)
    claims = []
    for i in range(2):
        for j in range(2):
            claims.append(zero_claim(f"cocycle [{i}][{j}]", lhs[i][j] - rhs[i][j]))
    return CheckOutcome("cocycle compatibility holds", "cocycle violated", claims)


def check_relations(cd: CoverData) -> CheckOutcome:
    """Shape of the chart presentations.

    Four relations per chart; the Frobenius-adjugate part is homogeneous
    of degree p+1 in the indeterminates while the det*H part has degree 2;
    clearing denominators leaves polynomial coefficients.
    """
    p = cd.ctx.p
    problems = []
    for name, rels, frob_adj in (
        ("u-chart", cd.relations_U, cd.frob_adj_U),
        ("w-chart", cd.relations_W, cd.frob_adj_W),
    ):
        if len(rels) != 4:
            problems.append(f"{name}: expected 4 relations")
            continue
        for rel in rels:
            if not rel.formal_degrees() <= {p + 1, 2}:
                problems.append(f"{name}: unexpected formal degrees {rel.formal_degrees()}")
            for coeff in rel.terms.values():
                if coeff.du or coeff.dw:
                    problems.append(f"{name}: coefficient not cleared: {coeff}")
        for entry in frob_adj[0] + frob_adj[1]:
            if entry.formal_degrees() != {p + 1}:
                problems.append(f"{name}: Frobenius-adjugate entry not homogeneous")
    return CheckOutcome("4 relations per chart, degrees p+1 and 2, cleared coefficients", problems=problems)


def check_gluing(cd: CoverData) -> CheckOutcome:
    """The chart identification is the matrix identity A = T * B.

    Each chart-U indeterminate equals the matching entry of T * B after
    the substitution, and det A = det T * det B = alpha*delta - beta*gamma.
    """
    TB = mat_mul(cd.T, cd.B)
    claims = []
    for name, entry in zip("abcd", TB[0] + TB[1]):
        claims.append(zero_claim(f"gluing entry {name}", cd.substitution[name] - entry))

    s = cd.substitution
    det_subst = s["a"] * s["d"] - s["b"] * s["c"]
    claims.append(zero_claim("det under gluing", det_subst - det(cd.B)))
    return CheckOutcome("gluing substitution equals T*B and preserves det", "gluing mismatch", claims)


def check_section_ring(cd: CoverData) -> CheckOutcome:
    """Membership identities generating the section ring on the u-chart.

    ((u^2/w) alpha + (v^2/w) gamma) w^2 - v^2 (w gamma) = u^2 (w alpha),
    and the beta/delta twin with v^2 (w delta); the variant with
    u^2 (w delta) instead does NOT vanish and is certified nonzero.
    """
    ctx = cd.ctx
    u, v, w = ctx.variables()
    f = ctx.fraction
    (alpha, beta), (gamma, delta) = cd.B
    w2 = f(w * w)

    def membership(first, second):
        outer = first * f(u * u, 0, 1) + second * f(v * v, 0, 1)
        return outer * w2 - second * f(v * v * w) - first * f(u * u * w)

    id1 = membership(alpha, gamma)
    id2 = membership(beta, delta)
    literal = (
        (beta * f(u * u, 0, 1) + delta * f(v * v, 0, 1)) * w2
        - delta * f(u * u * w)
        - beta * f(u * u * w)
    )
    claims = [
        zero_claim("section ring membership 1", id1),
        zero_claim("section ring membership 2", id2),
        nonzero_claim("section ring membership 2, u^2-variant", literal),
    ]
    return CheckOutcome(
        "memberships hold (u^2 w delta variant correctly nonzero)", "section ring membership failed", claims
    )


def check_det_periodicity(cd: CoverData) -> CheckOutcome:
    """Determinant bookkeeping forcing (ad - bc)^(p-1) = -2 on the cover.

    F(det A) = (det A)^p as formal polynomials, det H_U = -2, and
    det(H_U * A) = det H_U * det A; together with the chart relations
    these give (det A)^p = -2 det A.
    """
    ctx, A = cd.ctx, cd.A
    p = ctx.p
    f = ctx.fraction
    dA = det(A)
    frob_det = det(entrywise_p_power(A))
    diff1 = frob_det - dA ** p
    diff2 = det(mat_mul(cd.H_U, A)) - dA * det(cd.H_U)
    diff3 = det(cd.H_U) - f(-2)
    claims = [
        zero_claim("Frobenius commutes with det", diff1),
        zero_claim("det multiplicative on H_U * A", diff2),
        zero_claim("det H_U + 2", diff3),
    ]
    return CheckOutcome("determinant periodicity ingredients verified", "determinant bookkeeping failed", claims)


# -- specialization w = 0 (with u^(p+1) rewritten to -v^(p+1)) --------------


def _w0_reduce(p, terms):
    """Bivariate normal form in k[u, v]/(u^(p+1) + v^(p+1))."""
    out = {}
    for (i, j), c in terms.items():
        q, i = divmod(i, p + 1)
        j += q * (p + 1)
        c = (-1) ** q * c % p
        if not c:
            continue
        key = (i, j)
        new = (out.get(key, 0) + c) % p
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _w0_equal_const(frac: LocalFraction, value: int) -> bool:
    """Does the fraction (u-power denominator) specialize to the given constant at w = 0?"""
    if frac.dw:
        raise ValueError("fraction has a w in the denominator; undefined at w = 0")
    terms = {(i, j): c for (i, j, k), c in frac.num.terms.items() if k == 0}
    terms[frac.du, 0] = terms.get((frac.du, 0), 0) - value  # num - value * u^du
    return not _w0_reduce(frac.ctx.p, terms)


def _w0_points(ctx, count):
    """The first count points (1 : v0 : 0) of the degree-(p+1) curve over
    GF(p^2), v0 running over the norm_roots of -1: at most the p + 1 points
    with w = 0, each once up to scaling.  Each is checked on the curve as it
    is made: ValueError at the first that is not.
    """
    field = make_extension_field(ctx.p, 2)
    return [
        CurvePoint(ctx, (field.one, field.from_index(kv), field.zero))
        for kv in islice(norm_roots(field, -1), count)
    ]


def check_w0_specialization(cd: CoverData) -> CheckOutcome:
    """Killing w (hence u^(p+1) = -v^(p+1)) collapses the chart relations.

    With the determinant treated as a unit D, the four relations become
      F1 = a^p d - c b^p
      F2 = b^p a - a^p b - D
      F3 = c^p d - c d^p - 2 D
      F4 = d^p a - b c^p
    so after writing D = ad - bc every generator lies in (a, b, c, d) by
    degree (its terms have degree 2 or p + 1), which is the contradiction
    forcing det A outside the ground field.
    """
    ctx, A = cd.ctx, cd.A
    p = ctx.p
    (a11, a12), (a21, a22) = A
    expected_frob = (
        a11 ** p * a22 - a21 * a12 ** p,   # a^p d - c b^p
        a12 ** p * a11 - a11 ** p * a12,   # b^p a - a^p b
        a21 ** p * a22 - a21 * a22 ** p,   # c^p d - c d^p
        a22 ** p * a11 - a12 * a21 ** p,   # d^p a - b c^p
    )
    expected_dcoeff = (0, -1, -2, 0)

    problems = []
    flat = cd.frob_adj_U[0] + cd.frob_adj_U[1]
    h_entries = cd.H_U[0] + cd.H_U[1]
    for idx, (entry, target) in enumerate(zip(flat, expected_frob), start=1):
        if entry != target:
            problems.append(f"relation {idx}: Frobenius-adjugate part differs")
    for idx, (h, const) in enumerate(zip(h_entries, expected_dcoeff), start=1):
        # relation = (F(A) adj A)_{ij} - D * H_{ij}; at w = 0 the H entry
        # must specialize to -const so the D coefficient becomes const
        if not _w0_equal_const(h, -const):
            problems.append(f"relation {idx}: D coefficient does not specialize to {const}")

    # numeric cross-check on curve points with w = 0
    count = min(20, p + 1)
    try:
        points = _w0_points(ctx, count)
    except ValueError as exc:
        points = []
        problems.append(f"w = 0 sample: {exc}")
    else:
        if len(points) < count:
            problems.append(f"only {len(points)} of {count} curve points with w = 0 found")
    for idx, (h, const) in enumerate(zip(h_entries, expected_dcoeff), start=1):
        if any(h.evaluate(pt) != -const for pt in points):
            problems.append(f"relation {idx}: point evaluation at w = 0 disagrees")

    return CheckOutcome("w = 0 collapse matches F1..F4 with D-coefficients (0, -1, -2, 0)", problems=problems)


def check_matrix_ideal_shift(field: GF, rng, samples: int = 100) -> CheckOutcome:
    """Multiplication identities behind the ideal shift (A B^-1 - C) ~ (A - C B).

    For random 2x2 and 3x3 matrices over the prime field with invertible B:
      (A B^-1 - C) B = A - C B   and   (A - C B) B^-1 = A B^-1 - C.
    rng.randrange(p) keeps the values of rng.getrandbits(p.bit_length())
    below p, so a sample pulls the raw values its 3n^2 entries still lack
    until they are full, never one past its last, and the rng ends where
    drawing A, B, C with field.random_element leaves it.  Matrices are flat
    int lists; B^-1 = adj(B) / det(B), 1/det(B) from a table; the products
    are written out per size, each entry reduced mod p.
    """
    if field.m != 1:
        raise ValueError(f"ideal-shift samples need a prime field, got {field!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    p = field.p
    getrandbits, bits = rng.getrandbits, p.bit_length()
    inverses = [pow(x, p - 2, p) for x in range(p)]  # 0 for x = 0

    def product2(X, Y):
        a, b, c, d = X
        e, f, g, h = Y
        return [(a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p]

    def product3(X, Y):
        a, b, c, d, e, f, g, h, i = X
        j, k, l, m, n, o, q, r, s = Y
        return [
            (a * j + b * m + c * q) % p, (a * k + b * n + c * r) % p, (a * l + b * o + c * s) % p,
            (d * j + e * m + f * q) % p, (d * k + e * n + f * r) % p, (d * l + e * o + f * s) % p,
            (g * j + h * m + i * q) % p, (g * k + h * n + i * r) % p, (g * l + h * o + i * s) % p,
        ]

    checked = 0
    problems = []
    for n, product in ((2, product2), (3, product3)):
        size = n * n
        done = 0
        while done < samples and not problems:
            entries = []
            while len(entries) < 3 * size:
                entries += [x for x in map(getrandbits, repeat(bits, 3 * size - len(entries))) if x < p]
            A, B, C = entries[:size], entries[size:2 * size], entries[2 * size:]
            rows = [B[i:i + n] for i in range(0, size, n)]
            d_inv = inverses[det(rows) % p]
            if not d_inv:
                continue
            done += 1
            Binv = [d_inv * x % p for row in adjugate(rows) for x in row]
            G = [(x - y) % p for x, y in zip(product(A, Binv), C)]
            H = [(x - y) % p for x, y in zip(A, product(C, B))]
            if not (product(G, B) == H and product(H, Binv) == G):
                problems.append(f"ideal-shift identity failed at size {n}")
            checked += 1
    return CheckOutcome(
        f"ideal-shift identities hold on {checked} samples over {field!r}", problems=problems
    )
