"""Polynomials in matrix indeterminates with localized curve coefficients.

These carry the presentations of the cover's chart algebras: variables are
the entries of a 2x2 matrix of indeterminates, coefficients live in the
monomial localization of the curve ring.  Coefficients are not canonical
(fractions compare by cross multiplication), so equality compares
coefficients pairwise rather than by dictionary identity.

A product is one loop over pairs of terms: the exponents of each pair
add as tuples, its coefficients multiply as LocalFractions, and products
landing on the same exponents are summed in the order the pairs come.
"""

from __future__ import annotations

from .curve import CurveContext, CurvePolynomial, LocalFraction, as_curve_point
from .gf import RingElement, power


def binomial_residues(n: int, p: int):
    """C(n, k) mod p for k = 0, ..., n, in order.

    C(n, k + 1) = C(n, k) (n - k) / (k + 1) is stepped as p^v num / den,
    with num and den units mod p: each factor gives up its powers of p to
    v, so no int passes n p (C(n, k) itself grows to about n bits), and den
    is inverted only where v = 0.
    """
    num = den = 1
    v = 0
    yield 1
    for k in range(n):
        top, bottom = n - k, k + 1
        while not top % p:
            top //= p
            v += 1
        while not bottom % p:
            bottom //= p
            v -= 1
        num, den = num * top % p, den * bottom % p
        yield 0 if v else num * pow(den, -1, p) % p


class FormalPolynomial(RingElement):
    __slots__ = ("ctx", "vars", "terms")

    def __init__(self, ctx: CurveContext, variables: tuple[str, ...], terms: dict):
        self.ctx = ctx
        self.vars = tuple(variables)
        cleaned = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, LocalFraction):
                if not isinstance(coeff, (int, CurvePolynomial)):
                    raise TypeError(f"cannot use {type(coeff).__name__} as a coefficient")
                coeff = ctx.fraction(coeff)
            if not coeff.is_zero():
                cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    @classmethod
    def constant(cls, ctx, variables, value):
        return cls(ctx, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, ctx, variables, name, coeff=1):
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls(ctx, variables, {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, FormalPolynomial):
            same_ctx = other.ctx is self.ctx or other.ctx == self.ctx
            if not same_ctx or other.vars != self.vars:
                raise ValueError("formal polynomials over different rings")
            return other
        if isinstance(other, (int, CurvePolynomial, LocalFraction)):
            return FormalPolynomial.constant(self.ctx, self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return FormalPolynomial(self.ctx, self.vars, out)

    def __neg__(self):
        return FormalPolynomial(
            self.ctx, self.vars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return FormalPolynomial(self.ctx, self.vars, out)

    def __pow__(self, n: int):
        """self ** n: by the binomial theorem for one or two terms, else by
        square-and-multiply.

        (s + t)^n = sum over k of C(n, k) s^k t^(n-k), with every C(n, k)
        mod p taken from binomial_residues, and a term formed only where
        that residue is nonzero; so (ad - bc)^p is 2 terms from p + 1 steps
        on ints below p^2, not O(p^2) term products.  s and t have distinct
        exponents, so each k gives its own monomial.  Nothing is assumed to
        vanish.
        """
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        terms = list(self.terms.items())
        if not 1 <= len(terms) <= 2:
            return power(self, n, FormalPolynomial.constant(self.ctx, self.vars, 1))
        if len(terms) == 1:
            (e, c), = terms
            return FormalPolynomial(
                self.ctx, self.vars, {tuple(x * n for x in e): power(c, n, 1)}
            )
        (es, cs), (et, ct) = terms
        out = {}
        for k, residue in enumerate(binomial_residues(n, self.ctx.p)):
            if residue:
                exps = tuple(k * a + (n - k) * b for a, b in zip(es, et))
                out[exps] = residue * power(cs, k, 1) * power(ct, n - k, 1)
        return FormalPolynomial(self.ctx, self.vars, out)

    def p_power(self) -> FormalPolynomial:
        """Entrywise Frobenius: valid termwise in characteristic p."""
        p = self.ctx.p
        return FormalPolynomial(
            self.ctx,
            self.vars,
            {tuple(x * p for x in e): c.p_power() for e, c in self.terms.items()},
        )

    def formal_degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def evaluate(self, assignment: dict, point):
        """Value at a curve point with field values assigned to the variables.

        A tuple is checked on the curve once, here, and the coefficients
        are evaluated at the resulting CurvePoint without checking again.
        """
        point = as_curve_point(self.ctx, point)
        values = [assignment[name] for name in self.vars]
        field = values[0].field
        acc = field.zero
        for exps, coeff in self.terms.items():
            val = coeff.evaluate(point)
            for v, e in zip(values, exps):
                if e:
                    val = val * (v ** e)
            acc = acc + val
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        for e in set(self.terms) | set(other.terms):
            mine = self.terms.get(e)
            theirs = other.terms.get(e)
            if mine is None or theirs is None:
                return False  # stored coefficients are never zero
            if mine != theirs:
                return False
        return True

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            cs = str(coeff)
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or "/" in cs) else cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append((f"({cs})" if ("+" in cs or "/" in cs or "*" in cs) else cs) + "*" + mono)
        return " + ".join(parts)

    __repr__ = __str__

