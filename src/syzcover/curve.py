"""Exact arithmetic on the Fermat curve of degree p + 1 and its monomial localizations.

A CurveContext is its odd prime p.  The coordinate ring k[u, v, w] /
(u^e + v^e - w^e), e = p + 1, over F_p is represented in the normal form
obtained by eliminating powers w^k with k >= e through the defining
equation, i.e. on the monomial basis {u^i v^j w^k : k < e}.
One type, CurvePolynomial, holds the ring and its localizations at u and
w: a normal form over a denominator u^a w^b (a = b = 0 for a polynomial,
ctx.fraction for any other; the charts are the only places that ever get
localized).  Over different denominators elements compare by cross
multiplication, which is valid because u and w are nonzerodivisors in
the (integral) coordinate ring.

Distinct points of the curve are made by random_curve_points as tuples
and checked on the curve once, as CurvePoint, which also memoizes the
coordinate powers that evaluation reads; evaluation takes a CurvePoint only.
Over GF(p^2) the curve is Hermitian: x^(p+1) is the norm N(x), in F_p, so
a point's last coordinate solves x^(p+1) = c = N(u0) + N(v0).  norm_root,
the one solver, gives the p + 1 roots of c != 0 in closed form as
r * zeta^j, O(log p) field products each, to the sampler and to cover's
w = 0 points.
curve_cone_points enumerates the affine cone; it is the sampler's test
reference, not part of the pipeline.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .gf import GF, FieldElement, RingElement, is_prime, power, prime_factors


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

    def fraction(self, num, du: int = 0, dw: int = 0) -> CurvePolynomial:
        """num / (u^du * w^dw), reduced; num is an int or an element of this ring."""
        if isinstance(num, int):
            num = self.const(num)
        if num.ctx is not self and num.ctx != self:
            raise ValueError("numerator from a different context")
        if du < 0 or dw < 0:
            raise ValueError("denominator exponents must be >= 0")
        return _raw(self, num.terms, num.du + du, num.dw + dw)


class CurvePolynomial(RingElement):
    """Sparse normal-form element of the curve's coordinate ring over a
    monomial u^du * w^dw; du = dw = 0 is a polynomial.

    Terms map exponent triples (i, j, k) with k < e to coefficients in
    [1, p).  An element is reduced on construction: shared powers of u and
    w are cancelled, and zero is 0/1.  Over equal denominators equality is
    representation equality, which is decisive because the normal form is
    canonical on the basis {u^i v^j w^k : k < e}; over different ones it
    is cross multiplication.
    """

    __slots__ = ("ctx", "terms", "du", "dw")

    def __init__(self, ctx: CurveContext, terms: dict):
        self.ctx = ctx
        self.terms = _normalize(ctx, terms)
        self.du = self.dw = 0

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

    def _shifted(self, su: int, sw: int) -> dict:
        """The numerator's terms times u^su * w^sw, in normal form."""
        if su or sw:
            return _normalize(self.ctx, {(i + su, j, k + sw): c for (i, j, k), c in self.terms.items()})
        return self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ctx.p
        du, dw = max(self.du, other.du), max(self.dw, other.dw)
        out = dict(self._shifted(du - self.du, dw - self.dw))
        for e, c in other._shifted(du - other.du, dw - other.dw).items():
            new = (out.get(e, 0) + c) % p
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return _raw(self.ctx, out, du, dw)

    def __neg__(self):
        p = self.ctx.p
        return _raw(self.ctx, {e: p - c for e, c in self.terms.items()}, self.du, self.dw)

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
        return _raw(self.ctx, _normalize(self.ctx, out), self.du + other.du, self.dw + other.dw)

    def __pow__(self, n: int):
        """One term c*m with n >= 1 gives the term c^n * m^n, normalised once; else gf.power."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n and len(self.terms) == 1:
            (e, c), = self.terms.items()
            terms = _normalize(self.ctx, {tuple(n * x for x in e): pow(c, n, self.ctx.p)})
            return _raw(self.ctx, terms, n * self.du, n * self.dw)
        return power(self, n, self.ctx.one())

    def p_power(self) -> CurvePolynomial:
        """f**p computed termwise; valid since coefficients sit in F_p."""
        p = self.ctx.p
        terms = {(i * p, j * p, k * p): c for (i, j, k), c in self.terms.items()}
        return _raw(self.ctx, _normalize(self.ctx, terms), self.du * p, self.dw * p)

    def mul_monomial(self, cu: int, cw: int) -> CurvePolynomial:
        """Multiply by u^cu * w^cw, cancelling against the denominator first.

        Plain multiplication would push w-powers into the numerator where
        the defining relation rewrites them, hiding the cancellation; this
        keeps denominator clearing exact at the exponent level.
        """
        ku, kw = min(cu, self.du), min(cw, self.dw)
        return _raw(self.ctx, self._shifted(cu - ku, cw - kw), self.du - ku, self.dw - kw)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of the numerator's terms, or None if inhomogeneous."""
        degs = {i + j + k for (i, j, k) in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else -1

    def evaluate(self, point: CurvePoint) -> FieldElement:
        """Value at a CurvePoint of this curve; a point of another curve
        raises ValueError, and one where the denominator vanishes raises
        ZeroDivisionError.

        Each term reads its coordinate powers from the point's memo, and a
        term in which a zero coordinate has a positive exponent is skipped;
        the zero normal form, which has no terms, gives the field's zero.
        A term starts from its coefficient and is multiplied only by the
        powers that are not one (the memo holds every such power as the
        field's own `one`), and a coefficient 1 is not multiplied at all.
        The numerator's value is then multiplied by the memoized powers of
        1/u0 and 1/w0 (each inverse taken once per point) that are not one.
        """
        if point.ctx != self.ctx:
            raise ValueError("point was checked on a different curve")
        zu, zv, zw = point.zeros
        if self.du and zu or self.dw and zw:
            raise ZeroDivisionError("denominator vanishes at this point")
        field = point.coords[0].field
        acc, one = field.zero, field.one
        pows = point.powers
        for (i, j, k), c in self.terms.items():
            if i and zu or j and zv or k and zw:
                continue
            val = None if c == 1 else c
            for x in (pows[0, i], pows[1, j], pows[2, k]):
                if x is not one:
                    val = x if val is None else x * val
            acc = acc + (one if val is None else val)
        if self.du or self.dw:
            for x in (pows[0, -self.du], pows[2, -self.dw]):
                if x is not one:
                    acc = x * acc
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.du == other.du and self.dw == other.dw:
            return self.terms == other.terms
        return self._shifted(other.du, other.dw) == other._shifted(self.du, self.dw)

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
        num = " + ".join(parts)
        if not (self.du or self.dw):
            return num
        den = _monomial_text((self.du, 0, self.dw))
        if len(parts) > 1:
            num = f"({num})"
        if self.du and self.dw:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _monomial_text(exps) -> str:
    """u^exps[0]*v^exps[1]*w^exps[2] with exponent 1 unwritten and exponent 0 left out."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip("uvw", exps) if e)


def _raw(ctx, terms, du=0, dw=0):
    """terms / (u^du * w^dw), reduced; terms already in normal form with no zero coefficients."""
    if not terms:
        du = dw = 0
    elif du or dw:
        shift_u = min(du, min(i for (i, _, _) in terms))
        shift_w = min(dw, min(k for (_, _, k) in terms))
        if shift_u or shift_w:
            terms = {(i - shift_u, j, k - shift_w): c for (i, j, k), c in terms.items()}
            du -= shift_u
            dw -= shift_w
    poly = CurvePolynomial.__new__(CurvePolynomial)
    poly.ctx = ctx
    poly.terms = terms
    poly.du = du
    poly.dw = dw
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


def _norm(x: FieldElement) -> int:
    """N(x) = x * x^p in GF(p^2), as an int mod p; ValueError when it is not in
    F_p, which only a wrong Frobenius matrix makes."""
    n, rest = (x * x.p_power()).coeffs
    if rest:
        raise ValueError(f"the norm of {x!r} in {x.field!r} is not in F_p")
    return n


def _sqrt_mod(c: int, p: int) -> int:
    """A square root of c mod p, for c a square or 0, by Tonelli-Shanks."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    g = pow(next(n for n in range(2, p) if pow(n, p >> 1, p) == p - 1), q, p)
    t, r = pow(c, q, p), pow(c, (q + 1) >> 1, p)
    while t > 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(g, 1 << (s - i - 1), p)
        s, g, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def norm_root(field: GF):
    """root(c, j) for GF(p^2): the j-th of the p + 1 roots of x^(p+1) = c, for c != 0 mod p.

    The roots are r * zeta^j for j < p + 1, where zeta = x^(p-1) has order
    p + 1 and r is one root: sqrt(c) in F_p when c is a square mod p (N is
    squaring on F_p), else z * sqrt(c / N(z)) for a z whose norm is not a
    square.  x and z are the first qualifying a + t, a < p, and z is sought
    only when a non-square c first asks for it.  c = 0 gives its one root 0.
    Only ValueError leaves a root: for a search that runs out, or a norm
    outside F_p.
    """
    p, one = field.p, field.one
    cofactors = [(p + 1) // ell for ell in prime_factors(p + 1)]
    zeta = _first_unit(
        field, lambda x: all(x ** ((p - 1) * k) != one for k in cofactors), "x^(p-1) of order p + 1"
    ) ** (p - 1)
    twist = None

    def root(c: int, j: int) -> FieldElement:
        nonlocal twist
        if pow(c, p >> 1, p) < 2:
            r = field(_sqrt_mod(c, p))
        else:
            if twist is None:
                z = _first_unit(field, lambda x: pow(_norm(x), p >> 1, p) == p - 1, "a non-square norm")
                twist = z, pow(_norm(z), -1, p)
            z, inverse_norm = twist
            r = z * _sqrt_mod(c * inverse_norm, p)
        return r * zeta ** j

    return root


def _first_unit(field: GF, test, wanted: str) -> FieldElement:
    """The first a + t, a < p, in GF(p^2) that passes test; ValueError if none does."""
    for a in range(field.p):
        x = field.element((a, 1))
        if test(x):
            return x
    raise ValueError(f"no x = a + t in {field!r} has {wanted}")


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


def random_curve_points(field: GF, count: int, rng):
    """count distinct points with u0, w0 != 0 over field = GF(p^2) of the
    curve u^(p+1) + v^(p+1) = w^(p+1), drawn deterministically from rng, as
    tuples.

    The pairs (u0, v0) are drawn without repetition (a lazy Fisher-Yates
    shuffle of the pair indices).  rng picks one of the p + 1 roots w0 of
    x^(p+1) = s = N(u0) + N(v0) != 0 by its j in norm_root; a pair with
    s = 0 is skipped without a draw.  Raises ValueError when the roots
    cannot be made (a wrong Frobenius matrix), or when the pairs run out;
    callers check the returned tuples with CurvePoint.
    """
    p, order = field.p, field.order
    root = norm_root(field)
    total = (order - 1) * order
    swapped: dict = {}
    points = []
    for drawn in range(total):
        if len(points) == count:
            break
        pick = rng.randrange(drawn, total)
        pair = swapped.get(pick, pick)
        swapped[pick] = swapped.get(drawn, drawn)
        u0, v0 = field.from_index(1 + pair // order), field.from_index(pair % order)
        s = (_norm(u0) + _norm(v0)) % p
        if s:
            points.append((u0, v0, root(s, rng.randrange(p + 1))))
    if len(points) < count:
        raise ValueError(f"only {len(points)} curve points available, wanted {count}")
    return points
