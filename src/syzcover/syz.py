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

The catalog below holds every generating triple, the linear forms cutting
out the kernels of the two presentations, and the images of the
trivializing isomorphism.  Each check returns its exact identities in
the normal-form ring as claims, and the degree bookkeeping of each triple
as structural problems; the verdict follows from those, and the point
oracle re-checks the same claims numerically.
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

    quad is the degree-(p+1) curve in u, v, w; kernel_form
    (z, -y, x) = (w^2, -v^2, u^2) cuts out the kernels of the pullback
    presentation and of s and s', and koszul_kernel_form (y, -x, z) that of
    the Koszul presentation.
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
    frob_data = (x ** p, y ** p, z ** p)
    koszul_data = (z, -y, x)
    linear_data = (x, y, z)
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
    t["phi1"] = SyzygyTriple(
        "phi1",
        (-(z ** (d - 1)) * x, y * z ** (d - 1), x ** d - y ** d),
        frob_data,
        3 * p + 1,
    )
    t["phi2"] = SyzygyTriple(
        "phi2",
        (x * y ** (d - 1), 2 * x ** d + y ** d, -(y ** (d - 1)) * z),
        frob_data,
        3 * p + 1,
    )
    t["phi3"] = SyzygyTriple(
        "phi3",
        (x ** d + 2 * y ** d, x ** (d - 1) * y, -(x ** (d - 1)) * z),
        frob_data,
        3 * p + 1,
    )
    t["psi1"] = SyzygyTriple("psi1", (x, zero, -z), koszul_data, 4)
    t["psi2"] = SyzygyTriple("psi2", (y, z, zero), koszul_data, 4)
    t["psi3"] = SyzygyTriple("psi3", (zero, x, y), koszul_data, 4)
    t["alpha1"] = SyzygyTriple("alpha1", (-y, x, zero), linear_data, 4)
    t["alpha2"] = SyzygyTriple("alpha2", (-z, zero, x), linear_data, 4)
    t["alpha3"] = SyzygyTriple("alpha3", (zero, -z, y), linear_data, 4)
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

    The pullback presentation phi is killed by (z, -y, x); the Koszul
    presentation psi by (y, -x, z); the isomorphism images again by
    (z, -y, x); the same form gives w^2 s1 - v^2 s2 + u^2 s3 = 0 and its
    primed twin.
    """
    families = [
        ("phi", cat.kernel_form, (cat["phi1"], cat["phi2"], cat["phi3"])),
        ("psi", cat.koszul_kernel_form, (cat["psi1"], cat["psi2"], cat["psi3"])),
        ("alpha-images", cat.kernel_form, (cat["alpha1"], cat["alpha2"], cat["alpha3"])),
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
    """Well-definedness of the trivializing isomorphism.

    (i)  the images alpha_i are syzygies of (x, y, z), and the s_i are
         syzygies of (u^2, v^2, w^2);
    (ii) the sources phi_i / s_i' are syzygies of the p-th (2p-th) powers;
    (iii) the defining relation of the source presentation maps to the
         defining relation of the target, so the generator assignment
         descends to the quotients;
    (iv) the component swap turns each Koszul generator psi_i into a
         syzygy of (x, y, z);
    (v)  the paper's two transcriptions of the isomorphism data agree
         under x = u^2, y = v^2, z = w^2: phi_i = s_i' and alpha_i = s_i.
    """
    u, v, w = cat.quad.variables()
    claims = []
    syzygies = []  # triples whose degree bookkeeping is checked too

    for label in ("alpha1", "alpha2", "alpha3", "s1", "s2", "s3",
                  "phi1", "phi2", "phi3", "s1'", "s2'", "s3'"):
        syzygies.append(cat[label])
        claims.append(zero_claim(f"alpha step syzygy {label}", cat[label].combination()))

    # (iii) both defining relations vanish; exported by check_kernel_relation
    for name, keys in (("source", ("s1'", "s2'", "s3'")), ("target", ("s1", "s2", "s3"))):
        combo = _combine(cat.kernel_form, tuple(cat[k] for k in keys))
        for comp, poly in enumerate(combo):
            claims.append(zero_claim(f"alpha relation {name}[{comp}]", poly))

    # (iv) swap sends the Koszul generators to syzygies of (x, y, z)
    linear_data = (u ** 2, v ** 2, w ** 2)
    for key in ("psi1", "psi2", "psi3"):
        swapped = _swap(cat[key], linear_data, f"swap({key})")
        syzygies.append(swapped)
        claims.append(zero_claim(f"swap {key}", swapped.combination()))

    # (v) the triples in x, y, z equal their transcriptions in u, v, w
    pairs = [("phi1", "s1'"), ("phi2", "s2'"), ("phi3", "s3'"),
             ("alpha1", "s1"), ("alpha2", "s2"), ("alpha3", "s3")]
    for src, dst in pairs:
        for comp in range(3):
            diff = cat[src].components[comp] - cat[dst].components[comp]
            claims.append(zero_claim(f"substitution {src}->{dst}[{comp}]", diff))

    return CheckOutcome(
        "isomorphism data verified on both curves", "isomorphism data inconsistent", claims, _degree_problems(syzygies)
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
