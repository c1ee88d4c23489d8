"""Polynomials in matrix indeterminates with localized curve coefficients.

These carry the presentations of the cover's chart algebras: variables are
the entries of a 2x2 matrix of indeterminates, coefficients live in the
monomial localization of the curve ring, as CurvePolynomials over
monomial denominators.  Coefficients are not canonical (over different
denominators they compare by cross multiplication), so equality compares
coefficients pairwise rather than by dictionary identity.

A product is one loop over pairs of terms: the exponents of each pair
add as tuples, its coefficients multiply as CurvePolynomials, and products
landing on the same exponents are summed in the order the pairs come.
"""

from __future__ import annotations

from .curve import CurveContext, CurvePoint, CurvePolynomial
from .gf import RingElement, power


def binomial_residues(n: int, p: int) -> list:
    """(k, C(n, k) mod p) for the k in 0, ..., n with a nonzero residue, k increasing.

    By Lucas' theorem C(n, k) is the product of C(n_i, k_i) mod p over the
    base-p digits n_i of n and k_i of k, so it is nonzero exactly when every
    k_i <= n_i.  Each digit's C(n_i, j) is stepped as C(n_i, j) (n_i - j) /
    (j + 1), where j + 1 <= n_i < p is a unit; C(p, k) gives 2 pairs.
    """
    pairs, place = [(0, 1)], 1
    while n:
        n, digit = divmod(n, p)
        row = [1]
        for j in range(digit):
            row.append(row[j] * (digit - j) * pow(j + 1, -1, p) % p)
        pairs = [(j * place + k, c * r % p) for j, c in enumerate(row) for k, r in pairs]
        place *= p
    return pairs


class FormalPolynomial(RingElement):
    __slots__ = ("ctx", "vars", "terms")

    def __init__(self, ctx: CurveContext, variables: tuple[str, ...], terms: dict):
        self.ctx = ctx
        self.vars = tuple(variables)
        cleaned = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, CurvePolynomial):
                if not isinstance(coeff, int):
                    raise TypeError(f"cannot use {type(coeff).__name__} as a coefficient")
                coeff = ctx.const(coeff)
            elif coeff.ctx is not ctx and coeff.ctx != ctx:
                raise ValueError("coefficient from a different context")
            if not coeff.is_zero():
                cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    @classmethod
    def constant(cls, ctx, variables, value):
        return cls(ctx, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, ctx, variables, name):
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls(ctx, variables, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, FormalPolynomial):
            same_ctx = other.ctx is self.ctx or other.ctx == self.ctx
            if not same_ctx or other.vars != self.vars:
                raise ValueError("formal polynomials over different rings")
            return other
        if isinstance(other, (int, CurvePolynomial)):
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

        (s + t)^n = sum over k of C(n, k) s^k t^(n-k), with a term formed
        only for the k that binomial_residues gives, those with C(n, k) mod p
        nonzero; so (ad - bc)^p is 2 terms from 2 steps, not O(p^2) term
        products.  s and t have distinct
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
        for k, residue in binomial_residues(n, self.ctx.p):
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

    def evaluate(self, assignment: dict, point: CurvePoint):
        """Value at a CurvePoint of this curve with field values assigned to
        the variables; a point of another curve raises ValueError."""
        if point.ctx != self.ctx:
            raise ValueError("point was checked on a different curve")
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

