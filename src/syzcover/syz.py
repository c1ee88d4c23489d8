"""Explicit syzygy generators and the checks that certify them.

Everything lives on one curve for a given odd prime p: the degree-(p+1)
curve u^(p+1) + v^(p+1) = w^(p+1) in variables u, v, w, where the cover is
built.  The paper states its lemmas, the Frobenius periodicity of
Syz(x, y, z), on the degree-d curve x^d + y^d = z^d, d = (p+1)/2; the
catalog writes them through x = u^2, y = v^2, z = w^2 with every formula
as the paper has it.  That certifies the same facts: k[u, v, w] is free
over k[u^2, v^2, w^2] on the 8 monomials u^a v^b w^c, a, b, c in {0, 1},
and the curve equation lies in that subring, so the map R_d -> R_(p+1),
x -> u^2, y -> v^2, z -> w^2, is injective and doubles homogeneous
degrees.  An identity holds, or fails, on the degree-d curve exactly when
its image does on the degree-(p+1) curve; declared total degrees are
degrees in u, v, w, twice the paper's for the triples in x, y, z.  Under
the same substitution the Frobenius pullback of Syz(x, y, z) becomes the
periodicity of Syz(u^2, v^2, w^2)(3) that the cover uses.

The paper states the trivializing isomorphism twice, phi_i -> alpha_i in
x, y, z and s_i' -> s_i in u, v, w; through the substitution these are
the same triples, so the catalog holds them once, as s_i' and s_i.  Each
check returns its exact identities in the normal-form ring as claims, and
the degree bookkeeping of each triple as structural problems; the verdict
follows from those, and the point oracle re-checks the same claims
numerically.
"""

from __future__ import annotations

from collections import namedtuple

from .curve import CurveContext, CurvePolynomial
from .oracle import CheckOutcome, nonzero_claim, zero_claim


class SyzygyTriple(namedtuple("SyzygyTriple", "label components data total_degree")):
    """Components (a1, a2, a3) with sum(a_i * f_i) = 0 for data (f1, f2, f3).

    total_degree is deg(a_i) + deg(f_i), which the degree bookkeeping
    requires to be independent of i.
    """

    __slots__ = ()

    def combination(self) -> CurvePolynomial:
        a1, a2, a3 = self.components
        f1, f2, f3 = self.data
        return a1 * f1 + a2 * f2 + a3 * f3


class GeneratorCatalog(namedtuple("GeneratorCatalog", "quad triples kernel_form koszul_kernel_form")):
    """The generating triples of one prime, indexed by label (catalog["R0"]).

    quad is the degree-(p+1) curve in u, v, w.  The triples are the
    generators R0-R3, the Koszul generators psi_i of Syz(z, -y, x), and the
    source s_i' and image s_i of the trivializing isomorphism (the paper's
    phi_i and alpha_i).  kernel_form (z, -y, x) = (w^2, -v^2, u^2) cuts out
    the kernels of the s and s' presentations, and koszul_kernel_form
    (y, -x, z) that of the Koszul presentation.
    """

    __slots__ = ()

    def __getitem__(self, label: str) -> SyzygyTriple:
        return self.triples[label]


def build_catalog(p: int) -> GeneratorCatalog:
    """All explicit generators for the prime p."""
    d = (p + 1) // 2
    quad = CurveContext(p)
    u, v, w = quad.variables()
    x, y, z = u ** 2, v ** 2, w ** 2
    zero = quad.zero()

    mixed_data = (x ** p, y ** p, x ** d + y ** d)
    square_data = (x ** p, y ** p, (x ** d + y ** d) ** 2)
    koszul_data = (z, -y, x)
    s_data = (u ** 2, v ** 2, w ** 2)
    sp_data = (u ** (2 * p), v ** (2 * p), w ** (2 * p))

    t = {}
    t["R0"] = SyzygyTriple(
        "R0",
        (y ** (d - 1), x ** (d - 1), -((x * y) ** (d - 1))),
        mixed_data,
        3 * p - 1,
    )
    t["R1"] = SyzygyTriple(
        "R1", (-x, y, x ** d - y ** d), mixed_data, 2 * p + 2
    )
    t["R2"] = SyzygyTriple(
        "R2",
        (x * y ** (d - 1), 2 * x ** d + y ** d, -(y ** (d - 1))),
        square_data,
        3 * p + 1,
    )
    t["R3"] = SyzygyTriple(
        "R3",
        (x ** d + 2 * y ** d, x ** (d - 1) * y, -(x ** (d - 1))),
        square_data,
        3 * p + 1,
    )
    t["psi1"] = SyzygyTriple("psi1", (x, zero, -z), koszul_data, 4)
    t["psi2"] = SyzygyTriple("psi2", (y, z, zero), koszul_data, 4)
    t["psi3"] = SyzygyTriple("psi3", (zero, x, y), koszul_data, 4)
    t["s1"] = SyzygyTriple("s1", (-(v ** 2), u ** 2, zero), s_data, 4)
    t["s2"] = SyzygyTriple("s2", (-(w ** 2), zero, u ** 2), s_data, 4)
    t["s3"] = SyzygyTriple("s3", (zero, -(w ** 2), v ** 2), s_data, 4)
    t["s1'"] = SyzygyTriple(
        "s1'",
        (-(w ** (p - 1)) * u ** 2, v ** 2 * w ** (p - 1), u ** (p + 1) - v ** (p + 1)),
        sp_data,
        3 * p + 1,
    )
    t["s2'"] = SyzygyTriple(
        "s2'",
        (u ** 2 * v ** (p - 1), 2 * u ** (p + 1) + v ** (p + 1), -(v ** (p - 1)) * w ** 2),
        sp_data,
        3 * p + 1,
    )
    t["s3'"] = SyzygyTriple(
        "s3'",
        (u ** (p + 1) + 2 * v ** (p + 1), u ** (p - 1) * v ** 2, -(u ** (p - 1)) * w ** 2),
        sp_data,
        3 * p + 1,
    )
    return GeneratorCatalog(quad, t, (z, -y, x), (y, -x, z))


def degrees_consistent(triple: SyzygyTriple) -> bool:
    """deg(a_i) + deg(f_i) equals the declared total degree for every nonzero a_i."""
    for a, f in zip(triple.components, triple.data):
        if a.is_zero():
            continue
        da, df = a.homogeneous_degree(), f.homogeneous_degree()
        if da is None or df is None or da + df != triple.total_degree:
            return False
    return True


def _degree_problems(triples) -> list:
    return [f"degrees {t.label}" for t in triples if not degrees_consistent(t)]


def check_catalog(cat: GeneratorCatalog) -> CheckOutcome:
    return CheckOutcome(
        f"{len(cat.triples)} generating triples verified",
        "failed: {failures}",
        [zero_claim(f"syzygy {label}", t.combination()) for label, t in cat.triples.items()],
        _degree_problems(cat.triples.values()),
    )


def _combine(form, triples):
    """Componentwise sum(form_i * triple_i) for a 3-vector of triples."""
    out = []
    for comp in range(3):
        acc = form[0] * triples[0].components[comp]
        acc = acc + form[1] * triples[1].components[comp]
        acc = acc + form[2] * triples[2].components[comp]
        out.append(acc)
    return out


def check_kernel_relation(cat: GeneratorCatalog) -> CheckOutcome:
    """The single linear relation among each family of three generators.

    The Koszul presentation psi is killed by (y, -x, z); the images s of the
    trivializing isomorphism by (z, -y, x), w^2 s1 - v^2 s2 + u^2 s3 = 0,
    and its sources s' by the same form.  The two s relations are the
    defining relations of source and target, so the generator assignment
    s_i' -> s_i descends to the quotients.
    """
    families = [
        ("psi", cat.koszul_kernel_form, (cat["psi1"], cat["psi2"], cat["psi3"])),
        ("s", cat.kernel_form, (cat["s1"], cat["s2"], cat["s3"])),
        ("s'", cat.kernel_form, (cat["s1'"], cat["s2'"], cat["s3'"])),
    ]
    claims = []
    for name, form, triples in families:
        for comp, poly in enumerate(_combine(form, triples)):
            claims.append(zero_claim(f"kernel relation {name}[{comp}]", poly))
    return CheckOutcome("single linear relation kills each generating family", "kernel relation violated", claims)


def _swap(triple: SyzygyTriple, data, label) -> SyzygyTriple:
    """(a1, a2, a3) -> (a3, -a2, a1), re-aimed at different data."""
    a1, a2, a3 = triple.components
    return SyzygyTriple(label, (a3, -a2, a1), data, triple.total_degree)


def check_alpha(cat: GeneratorCatalog) -> CheckOutcome:
    """The Koszul swap of the trivializing isomorphism.

    The component swap turns each Koszul generator psi_i into a syzygy of
    (u^2, v^2, w^2) = (x, y, z), of the declared degree.  The rest of the
    isomorphism's well-definedness is claimed elsewhere: its sources s_i'
    and images s_i are syzygies (check_catalog), and its defining relations
    vanish (check_kernel_relation).
    """
    u, v, w = cat.quad.variables()
    squares = (u ** 2, v ** 2, w ** 2)
    claims, swapped = [], []
    for key in ("psi1", "psi2", "psi3"):
        swapped.append(_swap(cat[key], squares, f"swap({key})"))
        claims.append(zero_claim(f"swap {key}", swapped[-1].combination()))
    return CheckOutcome(
        "Koszul generators swap to syzygies of (u^2, v^2, w^2)",
        "isomorphism data inconsistent",
        claims,
        _degree_problems(swapped),
    )


def check_independence(cat: GeneratorCatalog) -> CheckOutcome:
    """The 2x3 matrices of generator pairs have a nonvanishing 2x2 minor.

    Each pair claims its first nonzero minor, or its first minor when all
    three vanish, so that the claim fails.
    """
    claims = []
    for left, right in (("R0", "R1"), ("R2", "R3")):
        minors = _minors(cat[left], cat[right])
        witness = next((m for m in minors if not m.is_zero()), minors[0])
        claims.append(nonzero_claim(f"minor {left},{right}", witness))
    return CheckOutcome("generator pairs independent", "dependent generator pair", claims)


def _minors(t1: SyzygyTriple, t2: SyzygyTriple):
    a, b = t1.components, t2.components
    return [a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2))]
