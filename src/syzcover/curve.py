"""Exact arithmetic on the Fermat curve of degree p + 1 and its monomial localizations.

A CurveContext is its odd prime p.  The coordinate ring k[u, v, w] /
(u^e + v^e - w^e), e = p + 1, over F_p is represented in the normal form
obtained by eliminating powers w^k with k >= e through the defining
equation, i.e. on the monomial basis {u^i v^j w^k : k < e}.
Fractions carry denominators u^a w^b only (the charts that ever get
localized) and compare by cross multiplication, which is valid because
u and w are nonzerodivisors in the (integral) coordinate ring.

Distinct points of the curve are made by random_curve_points as tuples
and checked on the curve once, as CurvePoint, which also memoizes the
coordinate powers that evaluation reads; evaluation takes a CurvePoint only.
norm_roots, the one solver of x^(p+1) = c in GF(p^2), yields roots lazily
to the sampler and cover's w = 0 search, which read only those they use.
curve_cone_points enumerates the affine cone; it is the sampler's test
reference, not part of the pipeline.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice

from .gf import GF, FieldElement, RingElement, is_prime, power


class CurveContext(namedtuple("CurveContext", "p")):
    """The Fermat curve u^(p+1) + v^(p+1) = w^(p+1) over F_p."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p) or p < 3:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        return super().__new__(cls, p)

    def zero(self) -> CurvePolynomial:
        return CurvePolynomial(self, {})

    def one(self) -> CurvePolynomial:
        return CurvePolynomial(self, {(0, 0, 0): 1})

    def const(self, c: int) -> CurvePolynomial:
        return self.monomial(c, (0, 0, 0))

    def monomial(self, c: int, exps) -> CurvePolynomial:
        return CurvePolynomial(self, {tuple(exps): c % self.p})

    def variables(self) -> tuple[CurvePolynomial, CurvePolynomial, CurvePolynomial]:
        return (
            self.monomial(1, (1, 0, 0)),
            self.monomial(1, (0, 1, 0)),
            self.monomial(1, (0, 0, 1)),
        )

    def fraction(self, num, du: int = 0, dw: int = 0) -> LocalFraction:
        if isinstance(num, int):
            num = self.const(num)
        return LocalFraction(self, num, du, dw)


class CurvePolynomial(RingElement):
    """Sparse normal-form element of the curve's coordinate ring.

    Terms map exponent triples (i, j, k) with k < e to coefficients in
    [1, p).  Equality is representation equality, which is decisive because
    the normal form is canonical on the basis {u^i v^j w^k : k < e}.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: CurveContext, terms: dict):
        self.ctx = ctx
        self.terms = _normalize(ctx, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, CurvePolynomial):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("polynomials from different curve contexts")
            return other
        if isinstance(other, int):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ctx.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            new = (out.get(e, 0) + c) % p
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return _raw(self.ctx, out)

    def __neg__(self):
        p = self.ctx.p
        return _raw(self.ctx, {e: p - c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ctx.p
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                out[e] = (out.get(e, 0) + c1 * c2) % p
        return CurvePolynomial(self.ctx, out)

    def __pow__(self, n: int):
        """One term c*m with n >= 1 gives the term c^n * m^n, normalised once; else gf.power."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n and len(self.terms) == 1:
            (e, c), = self.terms.items()
            return CurvePolynomial(self.ctx, {tuple(n * x for x in e): pow(c, n, self.ctx.p)})
        return power(self, n, self.ctx.one())

    def p_power(self) -> CurvePolynomial:
        """f**p computed termwise; valid since coefficients sit in F_p."""
        p = self.ctx.p
        return CurvePolynomial(
            self.ctx, {(i * p, j * p, k * p): c for (i, j, k), c in self.terms.items()}
        )

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous."""
        degs = {i + j + k for (i, j, k) in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else -1

    def evaluate(self, point: CurvePoint) -> FieldElement:
        """Value at a CurvePoint of this curve; a point of another curve raises ValueError.

        Each term reads its coordinate powers from the point's memo, and a
        term in which a zero coordinate has a positive exponent is skipped;
        the zero normal form, which has no terms, gives the field's zero.
        A term starts from its coefficient and is multiplied only by the
        powers that are not one (the memo holds every such power as the
        field's own `one`), and a coefficient 1 is not multiplied at all.
        """
        if point.ctx != self.ctx:
            raise ValueError("point was checked on a different curve")
        field = point.coords[0].field
        acc, one = field.zero, field.one
        zu, zv, zw = point.zeros
        pows = point.powers
        for (i, j, k), c in self.terms.items():
            if i and zu or j and zv or k and zw:
                continue
            val = None if c == 1 else c
            for x in (pows[0, i], pows[1, j], pows[2, k]):
                if x is not one:
                    val = x if val is None else x * val
            acc = acc + (one if val is None else val)
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.const(other)
        return (
            isinstance(other, CurvePolynomial)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (-(e[0] + e[1] + e[2]), (-e[0], -e[1], -e[2]))):
            c, mono = self.terms[e], _monomial_text(e)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _monomial_text(exps) -> str:
    """u^exps[0]*v^exps[1]*w^exps[2] with exponent 1 unwritten and exponent 0 left out."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip("uvw", exps) if e)


def _raw(ctx, terms):
    # terms already in normal form with no zero coefficients
    poly = CurvePolynomial.__new__(CurvePolynomial)
    poly.ctx = ctx
    poly.terms = terms
    return poly


def _normalize(ctx, terms):
    """Rewrite w^(e*q + r) as (u^e + v^e)^q w^r and drop zero coefficients."""
    p, e = ctx.p, ctx.p + 1
    out = {}
    for (i, j, k), c in terms.items():
        c %= p
        if not c:
            continue
        if k < e:
            key = (i, j, k)
            new = (out.get(key, 0) + c) % p
            if new:
                out[key] = new
            else:
                del out[key]
            continue
        q, r = divmod(k, e)
        for t in range(q + 1):
            coeff = (c * math.comb(q, t)) % p
            if not coeff:
                continue
            key = (i + e * t, j + e * (q - t), r)
            new = (out.get(key, 0) + coeff) % p
            if new:
                out[key] = new
            else:
                del out[key]
    return out


class LocalFraction(RingElement):
    """A curve polynomial divided by a monomial u^du * w^dw.

    Reduced on construction: shared powers of u and w are cancelled, and
    the zero fraction is 0/1.  Two fractions are equal when cross
    multiplication gives equal normal forms.
    """

    __slots__ = ("ctx", "num", "du", "dw")

    def __init__(self, ctx: CurveContext, num: CurvePolynomial, du: int = 0, dw: int = 0):
        if num.ctx is not ctx and num.ctx != ctx:
            raise ValueError("numerator from a different context")
        if du < 0 or dw < 0:
            raise ValueError("denominator exponents must be >= 0")
        if num.is_zero():
            du = dw = 0
        elif du or dw:
            shift_u = min(du, min(i for (i, _, _) in num.terms))
            shift_w = min(dw, min(k for (_, _, k) in num.terms))
            if shift_u or shift_w:
                num = _raw(
                    ctx,
                    {(i - shift_u, j, k - shift_w): c for (i, j, k), c in num.terms.items()},
                )
                du -= shift_u
                dw -= shift_w
        self.ctx = ctx
        self.num = num
        self.du = du
        self.dw = dw

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, LocalFraction):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("fractions from different curve contexts")
            return other
        if isinstance(other, (int, CurvePolynomial)):
            return self.ctx.fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        du = max(self.du, other.du)
        dw = max(self.dw, other.dw)
        a = _times_monomial(self.num, du - self.du, dw - self.dw)
        b = _times_monomial(other.num, du - other.du, dw - other.dw)
        return LocalFraction(self.ctx, a + b, du, dw)

    def __neg__(self):
        return LocalFraction(self.ctx, -self.num, self.du, self.dw)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LocalFraction(
            self.ctx, self.num * other.num, self.du + other.du, self.dw + other.dw
        )

    def p_power(self) -> LocalFraction:
        p = self.ctx.p
        return LocalFraction(self.ctx, self.num.p_power(), self.du * p, self.dw * p)

    def mul_monomial(self, cu: int, cw: int) -> LocalFraction:
        """Multiply by u^cu * w^cw, cancelling against the denominator first.

        Plain multiplication would push w-powers into the numerator where
        the defining relation rewrites them, hiding the cancellation; this
        keeps denominator clearing exact at the exponent level.
        """
        ku, kw = min(cu, self.du), min(cw, self.dw)
        num = _times_monomial(self.num, cu - ku, cw - kw)
        return LocalFraction(self.ctx, num, self.du - ku, self.dw - kw)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times_monomial(self.num, other.du, other.dw) == _times_monomial(
            other.num, self.du, self.dw
        )

    def evaluate(self, point: CurvePoint) -> FieldElement:
        """Value at a CurvePoint of this curve; the numerator's evaluate
        rejects a point of another curve.

        Raises ZeroDivisionError where the denominator vanishes.  The
        numerator's value is multiplied by the memoized powers of 1/u0 and
        1/w0 (each inverse taken once per point) that are not `one`.
        """
        val, one = self.num.evaluate(point), point.coords[0].field.one
        zu, _, zw = point.zeros
        if (self.du and zu) or (self.dw and zw):
            raise ZeroDivisionError("denominator vanishes at this point")
        for x in (point.powers[0, -self.du], point.powers[2, -self.dw]):
            if x is not one:
                val = val * x
        return val

    def __str__(self):
        num = str(self.num)
        if self.du == 0 and self.dw == 0:
            return num
        den = _monomial_text((self.du, 0, self.dw))
        if len(self.num.terms) > 1:
            num = f"({num})"
        if self.du and self.dw:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _times_monomial(num, du, dw):
    """num * u^du * w^dw; num itself when both exponents are 0."""
    if du or dw:
        return num * num.ctx.monomial(1, (du, 0, dw))
    return num


def on_curve(ctx: CurveContext, point) -> bool:
    u0, v0, w0 = point
    e = ctx.p + 1
    return (u0 ** e) + (v0 ** e) == (w0 ** e)


class _Powers(dict):
    """(axis, e) -> coordinate ** e at one point, for axis 0, 1, 2 = u0, v0, w0.

    Holds the coordinates themselves as e = 1.  A miss is filled by ** and
    kept; a negative e raises the coordinate's inverse, which is taken once
    (ZeroDivisionError for a zero coordinate).  A power equal to one is
    kept as the field's own `one`, so that evaluation can skip it by identity.
    """

    __slots__ = ()

    def __missing__(self, key):
        axis, e = key
        base = self[axis, 1]
        one = base.field.one
        if base is one:
            value = one
        elif e == -1:
            value = base.inverse()
        elif e < 0:
            value = self[axis, -1] ** -e
        else:
            value = base ** e
        self[key] = value = one if value == one else value
        return value


class CurvePoint:
    """A point (u0, v0, w0) over a field of characteristic p, checked to lie on ctx.

    The check runs once, here; evaluation at a CurvePoint of the same
    context trusts it.  Raises ValueError for a wrong characteristic or a
    point off the curve.  The point keeps what every evaluation at it
    needs: the flags of its zero coordinates and a memo of the
    coordinates' powers (powers[axis, e], e < 0 for powers of 1/u0, 1/v0
    and 1/w0), so each power is computed at most once per point.
    """

    __slots__ = ("ctx", "coords", "zeros", "powers")

    def __init__(self, ctx: CurveContext, coords):
        u0, v0, w0 = coords
        if u0.field.p != ctx.p:
            raise ValueError("evaluation field has wrong characteristic")
        if not on_curve(ctx, coords):
            e = ctx.p + 1
            raise ValueError(
                f"point ({u0!r}, {v0!r}, {w0!r}) does not lie on the curve "
                f"u^{e} + v^{e} = w^{e}"
            )
        self.ctx = ctx
        self.coords = (u0, v0, w0)
        self.zeros = (u0.is_zero(), v0.is_zero(), w0.is_zero())
        one = u0.field.one
        self.powers = _Powers(
            {(axis, 1): one if x == one else x for axis, x in enumerate(self.coords)}
        )

    def __iter__(self):
        return iter(self.coords)


def norm_key(field: GF):
    """k -> the coefficient pair of the norm x^(p+1) = x * Frob(x), for x =
    field.from_index(k) in GF(p^2), computed on the int pair (a, b) of
    x = a + b*t from the field's Frobenius columns and modulus, with no field
    element made."""
    p = field.p
    (f00, f01), (f10, f11) = field.frobenius_columns()
    m0, m1 = field.modulus[:2]  # t^2 = -m1*t - m0

    def norm(k):
        a, b = k % p, k // p
        c, d = a * f00 + b * f10, a * f01 + b * f11
        return (a * c - m0 * b * d) % p, (a * d + b * c - m1 * b * d) % p

    return norm


def norm_roots(field: GF, c: int):
    """Yield the indices k >= 1, increasing, of the x in GF(p^2) with x^(p+1) = c in F_p.

    The norm's first coordinate at index a + b*p is a quadratic form Q(a, b),
    read off norm_key at 1, p and p + 1.  Row b is solved, as the caller reads
    on, by a table of square roots mod p; the full norm confirms each root.
    The first next() raises ValueError when Q has no a^2 term.
    """
    p = field.p
    norm = norm_key(field)
    qa, qc = norm(1)[0], norm(p)[0]
    if not qa:
        raise ValueError(f"the norm of {field!r} has no a^2 term")
    qb, half = (norm(p + 1)[0] - qa - qc) % p, pow(2 * qa, p - 2, p)
    roots = {x * x % p: {x, -x % p} for x in range(p)}
    target = (c % p, 0)
    for b in range(p):
        lin = qb * b % p
        disc = (lin * lin - 4 * qa * (qc * b * b - c)) % p
        for k in sorted((r - lin) * half % p + b * p for r in roots.get(disc, ())):
            if k and norm(k) == target:
                yield k


def curve_cone_points(ctx: CurveContext, field: GF):
    """All nonzero (u0, v0, w0) in the field cube satisfying the equation.

    Enumerated with one precomputed table of e-th powers, so the cost is
    O(|F|^2) instead of a cube scan.  Nothing in the pipeline calls it: it
    is the reference enumeration that the sampler is tested against, and
    the benchmark's tracer binds it by name.
    """
    e = ctx.p + 1
    power_to_elems: dict = {}
    for w0 in field.elements():
        power_to_elems.setdefault((w0 ** e).coeffs, []).append(w0)
    points = []
    for u0 in field.elements():
        ue = u0 ** e
        for v0 in field.elements():
            t = ue + (v0 ** e)
            for w0 in power_to_elems.get(t.coeffs, ()):
                if not (u0.is_zero() and v0.is_zero() and w0.is_zero()):
                    points.append((u0, v0, w0))
    return points


def random_curve_points(ctx: CurveContext, field: GF, count: int, rng):
    """count distinct points with u0, w0 != 0 over GF(p^2) of ctx's curve,
    drawn deterministically from rng, as tuples.

    The pairs (u0, v0) are drawn without repetition (a lazy Fisher-Yates
    shuffle of the pair indices).  rng picks one of the p + 1 roots w0 of
    x^(p+1) = s = N(u0) + N(v0) != 0, and norm_roots is read in index order
    only up to it; a pair with s = 0 is skipped without a draw.  Only
    returned points become field elements.  Raises ValueError when the
    roots run out before the pick (a wrong Frobenius matrix), or when the
    pairs run out first; callers check the returned tuples with CurvePoint.
    """
    p, order = field.p, field.order
    norm = norm_key(field)
    total = (order - 1) * order
    swapped: dict = {}
    points = []
    for drawn in range(total):
        if len(points) == count:
            break
        pick = rng.randrange(drawn, total)
        pair = swapped.get(pick, pick)
        swapped[pick] = swapped.get(drawn, drawn)
        ui, vi = 1 + pair // order, pair % order
        s = (norm(ui)[0] + norm(vi)[0]) % p
        if not s:
            continue
        wi = next(islice(norm_roots(field, s), rng.randrange(p + 1), None), None)
        if wi is None:
            raise ValueError(f"x^(p+1) = {s} has fewer than {p + 1} roots in {field!r}")
        points.append(tuple(field.from_index(i) for i in (ui, vi, wi)))
    if len(points) < count:
        raise ValueError(f"only {len(points)} curve points available, wanted {count}")
    return points
