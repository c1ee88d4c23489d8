"""Construction data for the etale cover and the identities certifying it.

On the degree-(p+1) curve the rank-2 bundle trivializes on the charts
where u (resp. w) is invertible.  The cover is glued from two polynomial
algebras, one per chart, each presented by the entries of F(A) * A^(-1)
minus an explicit matrix H of localized functions, where F(A) raises the
matrix indeterminates to the p-th power.  Everything this module builds
is exact: the transition matrix between the two frames, the two H
matrices with their base-change certificates, the cocycle compatibility,
the det-cleared chart relations, the gluing substitution, and the
determinant computations that make the cover decompose.  Each check
returns these identities as claims, plus any structural problems it finds
(relation shapes, the w = 0 comparisons, the ideal-shift samples); the
verdict is derived from those alone.
"""

from __future__ import annotations

from collections import namedtuple

from .curve import CurveContext, CurvePoint, LocalFraction, power_key
from .formal import FormalPolynomial
from .gf import GF, make_extension_field
from .matrices import (
    adjugate,
    det,
    entrywise_p_power,
    mat,
    mat_inverse,
    mat_mul,
    mat_sub,
)
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


def transition_matrix(ctx: CurveContext):
    u, v, w = ctx.variables()
    f = ctx.fraction
    return mat([
        [f(0), f(-w, 1, 0)],
        [f(u, 0, 1), f(v * v, 1, 1)],
    ])


def h_matrices(ctx: CurveContext):
    p = ctx.p
    u, v, w = ctx.variables()
    f = ctx.fraction
    up1 = u ** (p + 1)
    vp1 = v ** (p + 1)
    h_u = mat([
        [f(v ** 2 * w ** (p - 1), p + 1, 0), f(2 * up1 + vp1, p + 1, 0)],
        [f(up1 - vp1, p + 1, 0), f(-(v ** (p - 1)) * w ** 2, p + 1, 0)],
    ])
    h_w = mat([
        [f(-(u ** 2) * v ** (p - 1), 0, p + 1), f(-(up1 + 2 * vp1), 0, p + 1)],
        [f(-(2 * up1 + vp1), 0, p + 1), f(-(u ** (p - 1)) * v ** 2, 0, p + 1)],
    ])
    return h_u, h_w


def _formal_matrix(ctx, names):
    """The 2x2 matrix of formal indeterminates, names listed row by row."""
    a11, a12, a21, a22 = (FormalPolynomial.variable(ctx, names, n) for n in names)
    return mat([[a11, a12], [a21, a22]])


def _frobenius_adjugate(A):
    """F(A) * adj(A): the part of a chart's relations of degree p + 1."""
    return mat_mul(entrywise_p_power(A), adjugate(A))


def _lift(ctx, names, M):
    """Matrix of fractions as a matrix of constant formal polynomials."""
    return mat([
        [FormalPolynomial.constant(ctx, names, entry) for entry in row] for row in M
    ])


def _chart_relations(ctx, A, frob_adj, H, clear_u: int, clear_w: int):
    """Det-cleared entries of F(A)*adj(A) - det(A)*H, listed row by row."""
    dA = det(A)
    rels = []
    for i in range(2):
        for j in range(2):
            rel = frob_adj[i][j] - dA.scale(H[i][j])
            cleared = FormalPolynomial(
                ctx,
                rel.vars,
                {e: c.mul_monomial(clear_u, clear_w) for e, c in rel.terms.items()},
            )
            rels.append(cleared)
    return tuple(rels)


def build_cover_data(p: int, catalog: GeneratorCatalog | None = None) -> CoverData:
    catalog = catalog or build_catalog(p)
    ctx = catalog.quad
    u, v, w = ctx.variables()
    T = transition_matrix(ctx)
    h_u, h_w = h_matrices(ctx)
    A, B = _formal_matrix(ctx, U_VARS), _formal_matrix(ctx, W_VARS)
    frob_adj_U, frob_adj_W = _frobenius_adjugate(A), _frobenius_adjugate(B)
    relations_U = _chart_relations(ctx, A, frob_adj_U, h_u, p + 1, 0)
    relations_W = _chart_relations(ctx, B, frob_adj_W, h_w, 0, p + 1)

    (alpha, beta), (gamma, delta) = B
    f = ctx.fraction
    substitution = {
        "a": gamma.scale(f(-w, 1, 0)),
        "b": delta.scale(f(-w, 1, 0)),
        "c": alpha.scale(f(u, 0, 1)) + gamma.scale(f(v * v, 1, 1)),
        "d": beta.scale(f(u, 0, 1)) + delta.scale(f(v * v, 1, 1)),
    }
    return CoverData(ctx, catalog, T, h_u, h_w, A, B, frob_adj_U, frob_adj_W, relations_U, relations_W, substitution)


def _frame(triple, var_idx: int):
    """Components of a generating triple divided by u or w."""
    ctx = triple.components[0].ctx
    du, dw = int(var_idx == 0), int(var_idx == 2)
    return [LocalFraction(ctx, comp, du, dw) for comp in triple.components]


def _p_frame(triple, var_idx: int):
    """Componentwise p-th powers of a frame: over u^p or w^p."""
    return [x.p_power() for x in _frame(triple, var_idx)]


def check_transition(cd: CoverData) -> CheckOutcome:
    """The frame over the w-chart in terms of the frame over the u-chart.

    s2/w = (u/w) s2/u and s3/w = (v^2/(uw)) s2/u - (w/u) s1/u, which is
    the defining relation restricted to the overlap; together they pin
    every entry of T, and det T = 1.
    """
    cat = cd.catalog
    f = cd.ctx.fraction
    claims = []

    s1_u = _frame(cat["s1"], 0)
    s2_u = _frame(cat["s2"], 0)
    s2_w = _frame(cat["s2"], 2)
    s3_w = _frame(cat["s3"], 2)
    t = cd.T
    for i in range(3):
        d1 = s2_w[i] - t[1][0] * s2_u[i]
        # column 2 of T feeds both frame vectors: s3/w = T[1][1] s2/u + T[0][1] s1/u
        d2 = s3_w[i] - (t[1][1] * s2_u[i] + t[0][1] * s1_u[i])
        claims.append(zero_claim(f"transition frame e1[{i}]", d1))
        claims.append(zero_claim(f"transition frame e2[{i}]", d2))

    claims.append(zero_claim("det T - 1", det(cd.T) - f(1)))
    return CheckOutcome("transition matrix certified against the frames", "transition matrix mismatch", claims)


def check_base_change(cd: CoverData) -> CheckOutcome:
    """Columns of H_U (H_W) express the pulled-back frame in p-th powers.

    On the u-chart: s_j'/u = H_U[0][j] s1^(p)/u^p + H_U[1][j] s2^(p)/u^p,
    and the analogous identity with s2, s3 on the w-chart; both
    determinants equal -2.
    """
    cat = cd.catalog
    f = cd.ctx.fraction
    claims = []

    p_frames_u = (_p_frame(cat["s1"], 0), _p_frame(cat["s2"], 0))
    primed_u = (_frame(cat["s1'"], 0), _frame(cat["s2'"], 0))
    p_frames_w = (_p_frame(cat["s2"], 2), _p_frame(cat["s3"], 2))
    primed_w = (_frame(cat["s2'"], 2), _frame(cat["s3'"], 2))

    for name, H, p_frames, primed in (
        ("u-chart", cd.H_U, p_frames_u, primed_u),
        ("w-chart", cd.H_W, p_frames_w, primed_w),
    ):
        for j in range(2):
            for i in range(3):
                diff = primed[j][i] - (H[0][j] * p_frames[0][i] + H[1][j] * p_frames[1][i])
                claims.append(zero_claim(f"base change {name} col{j}[{i}]", diff))

    for name, H in (("H_U", cd.H_U), ("H_W", cd.H_W)):
        claims.append(zero_claim(f"det {name} + 2", det(H) - f(-2)))
    return CheckOutcome("frame comparison matrices certified, det = -2", "base change mismatch", claims)


def check_cocycle(cd: CoverData) -> CheckOutcome:
    """Compatibility on the overlap: H_U = T^(p) H_W T^(-1)."""
    rhs = mat_mul(mat_mul(entrywise_p_power(cd.T), cd.H_W), mat_inverse(cd.T))
    claims = []
    for i in range(2):
        for j in range(2):
            claims.append(zero_claim(f"cocycle [{i}][{j}]", cd.H_U[i][j] - rhs[i][j]))
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
        for entry in (frob_adj[0][0], frob_adj[0][1], frob_adj[1][0], frob_adj[1][1]):
            if entry.formal_degrees() != {p + 1}:
                problems.append(f"{name}: Frobenius-adjugate entry not homogeneous")
    return CheckOutcome("4 relations per chart, degrees p+1 and 2, cleared coefficients", problems=problems)


def check_gluing(cd: CoverData) -> CheckOutcome:
    """The chart identification is the matrix identity A = T * B.

    Each chart-U indeterminate equals the matching entry of T * B after
    the substitution, and det A = det T * det B = alpha*delta - beta*gamma.
    """
    TB = mat_mul(_lift(cd.ctx, W_VARS, cd.T), cd.B)
    claims = []
    for (i, j), name in (((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")):
        claims.append(zero_claim(f"gluing entry {name}", cd.substitution[name] - TB[i][j]))

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
        outer = first.scale(f(u * u, 0, 1)) + second.scale(f(v * v, 0, 1))
        return outer.scale(w2) - second.scale(f(v * v * w)) - first.scale(f(u * u * w))

    id1 = membership(alpha, gamma)
    id2 = membership(beta, delta)
    literal = (
        (beta.scale(f(u * u, 0, 1)) + delta.scale(f(v * v, 0, 1))).scale(w2)
        - delta.scale(f(u * u * w))
        - beta.scale(f(u * u * w))
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
    hu_formal = _lift(ctx, U_VARS, cd.H_U)
    diff2 = det(mat_mul(hu_formal, A)) - dA.scale(det(cd.H_U))
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
        sign = 1
        while i >= p + 1:
            i -= p + 1
            j += p + 1
            sign = -sign
        c = (sign * c) % p
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


def _w0_points(ctx, count=20):
    """Up to count curve points with w = 0 over GF(p^2): u^(p+1) = -v^(p+1), u != 0.

    Found in index order of (u0, v0), with u^(p+1) and v^(p+1) from
    curve.power_key on the indices (int pairs mod p, the norm); only hits
    become field elements, each checked on the curve with plain ** as it
    is made; raises ValueError at the first that is not.
    """
    p = ctx.p
    field = make_extension_field(p, 2)
    norm = power_key(ctx, field)
    pts = []
    for ku in range(1, p * p):
        target = tuple(-c % p for c in norm(ku))
        for kv in range(p * p):
            if norm(kv) == target:
                pts.append(CurvePoint(ctx, (field.from_index(ku), field.from_index(kv), field.zero)))
                if len(pts) >= count:
                    return pts
    return pts


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
    h_entries = (cd.H_U[0][0], cd.H_U[0][1], cd.H_U[1][0], cd.H_U[1][1])
    for idx, (entry, target) in enumerate(zip(flat, expected_frob), start=1):
        if entry != target:
            problems.append(f"relation {idx}: Frobenius-adjugate part differs")
    for idx, (h, const) in enumerate(zip(h_entries, expected_dcoeff), start=1):
        # relation = (F(A) adj A)_{ij} - D * H_{ij}; at w = 0 the H entry
        # must specialize to -const so the D coefficient becomes const
        if not _w0_equal_const(h, -const):
            problems.append(f"relation {idx}: D coefficient does not specialize to {const}")

    # numeric cross-check on curve points with w = 0
    try:
        points = _w0_points(ctx, 20)
    except ValueError as exc:
        points = []
        problems.append(f"w = 0 sample: {exc}")
    else:
        if len(points) < 20:
            problems.append(f"only {len(points)} of 20 curve points with w = 0 found")
    for idx, (h, const) in enumerate(zip(h_entries, expected_dcoeff), start=1):
        if any(h.evaluate(pt) != -const for pt in points):
            problems.append(f"relation {idx}: point evaluation at w = 0 disagrees")

    return CheckOutcome("w = 0 collapse matches F1..F4 with D-coefficients (0, -1, -2, 0)", problems=problems)


def check_matrix_ideal_shift(field: GF, rng, samples: int = 100) -> CheckOutcome:
    """Multiplication identities behind the ideal shift (A B^-1 - C) ~ (A - C B).

    For random 2x2 and 3x3 matrices over the prime field with invertible B:
      (A B^-1 - C) B = A - C B   and   (A - C B) B^-1 = A B^-1 - C.
    Entries are ints mod p drawn with rng.randrange(p), the draws of
    field.random_element; B^-1 is adj(B) / det(B), and both sides are
    reduced mod p before they are compared.
    """
    if field.m != 1:
        raise ValueError(f"ideal-shift samples need a prime field, got {field!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    p = field.p
    mod = lambda M: mat([[x % p for x in row] for row in M])
    checked = 0
    problems = []
    for n in (2, 3):
        done = 0
        while done < samples and not problems:
            A, B, C = ([[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(3))
            d = det(B) % p
            if not d:
                continue
            done += 1
            d_inv = pow(d, p - 2, p)
            Binv = mod([[d_inv * x for x in row] for row in adjugate(B)])
            G = mod(mat_sub(mat_mul(A, Binv), C))
            H = mod(mat_sub(A, mat_mul(C, B)))
            if not (mod(mat_mul(G, B)) == H and mod(mat_mul(H, Binv)) == G):
                problems.append(f"ideal-shift identity failed at size {n}")
            checked += 1
    return CheckOutcome(
        f"ideal-shift identities hold on {checked} samples over {field!r}", problems=problems
    )
