"""Exact arithmetic in finite fields GF(p^m) for odd primes p.

Elements are polynomial residues modulo a monic irreducible polynomial.
The modulus is chosen deterministically (first irreducible in a fixed
counting order, by Ben-Or's test), so everything serialized from a field
is stable across runs and machines.  make_extension_field memoizes one
field per (p, m).

An int operand of * scales the coefficient tuple mod p.  Two elements of
GF(p^2) multiply in closed form on their int pairs, with t^2 = r0 + r1 t
stored once per field; every other product, in a prime field (m = 1) too,
is the remainder of the polynomial product by the modulus, the same
_pmul/_pmod that Ben-Or's test uses.

Frobenius x -> x^p is F_p-linear, so it is applied as an m x m matrix over
F_p, built and certified once per field.  Inverses use it too: x^-1 is the
product of x's other conjugates over the norm of x, an int mod p.  The
pipeline builds no field of degree above 2: the oracle works in GF(p^2),
and the census holds its field as GF(p^2)[theta]/(theta^o - gamma).

RingElement is the one arithmetic protocol of the engine's three ring
types, FieldElement here, CurvePolynomial (over a monomial denominator)
in curve and FormalPolynomial in formal: each defines is_zero, _coerce
(the other operand in its own ring, or None), +, unary -, * and p_power
(x -> x^p), and takes truth, - and the reflected +, - and * from the base.

find_generator and solve_power_equation scan the whole field.  The
pipeline calls neither: they are references that the census tests and the
benchmark's tracer use.
"""

from __future__ import annotations

import itertools
import math


def is_prime(n: int) -> bool:
    """n > 1 whose least prime factor is n; trial division stops at that factor."""
    return n > 1 and next(_trial_division(n)) == n


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending (trial division)."""
    return tuple(_trial_division(n))


def _trial_division(n: int):
    """Yield the distinct prime factors of n, ascending, each as it is found."""
    for f in itertools.chain((2,), itertools.count(3, 2)):
        if f * f > n:
            break
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
    if n > 1:
        yield n


# -- dense univariate polynomials over F_p (ascending coefficient lists) --


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, f, p):
    # f monic
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - df
            for i, c in enumerate(f):
                r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return _trim(r)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, using only `*`.

    Starts from base at the lowest set bit and squares only while bits
    remain, so n >= 1 costs bit_length(n) - 1 squarings plus popcount(n) - 1
    products; n = 0 gives one.
    """
    if not n:
        return one
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            result = result * base
        n >>= 1
    return result


def _ppowmod(a, e, f, p):
    # square-and-multiply on coefficient lists, reduced modulo f
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), f, p)
    return result


def _is_irreducible(f, p):
    """Ben-Or's test (1981) for a monic f of degree m over F_p.

    f is irreducible exactly when gcd(f, x^(p^i) - x) = 1 for every
    i <= m/2; x^(p^i) mod f is built one p-th power at a time, and the
    test stops at the first nontrivial gcd.
    """
    m = len(f) - 1
    h = [0, 1]
    for _ in range(m // 2):
        h = _ppowmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(f, _trim(diff), p)) > 1:
            return False
    return True


def _find_irreducible(p, m):
    """First monic irreducible of degree m in base-p counting order."""
    for k in itertools.count():
        digits, kk = [], k
        for _ in range(m):
            digits.append(kk % p)
            kk //= p
        if kk:
            raise RuntimeError(f"no irreducible of degree {m} over GF({p}) found")
        cand = digits + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)


class GF:
    """The finite field with p**m elements.

    Elements enumerate in a canonical order: the element with coefficients
    (a_0, ..., a_{m-1}) sits at index sum(a_i * p**i), i.e. base-p counting
    with the constant coefficient least significant.
    """

    __slots__ = (
        "p", "m", "order", "modulus", "_t_squared", "_frobenius", "zero", "one",
    )

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p) or p < 3:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = _find_irreducible(p, m)
        # (r0, r1) with t^2 = r0 + r1 t, for the closed GF(p^2) product
        self._t_squared = tuple((-c) % p for c in self.modulus[:2]) if m == 2 else None
        self._frobenius = None
        self.zero = FieldElement(self, (0,) * m)
        self.one = FieldElement(self, (1,) + (0,) * (m - 1))

    def frobenius_columns(self) -> tuple:
        """Columns of the matrix of x -> x^p on the power basis, built on first use.

        Column i holds the coefficients of (t^p)^i mod the modulus; the
        matrix is certified by frobenius_mismatches before it is cached.
        """
        if self._frobenius is None:
            p, m, modulus = self.p, self.m, list(self.modulus)
            tp = _ppowmod([0, 1], p, modulus, p)
            cols, col = [], [1]
            for _ in range(m):
                cols.append(tuple(col + [0] * (m - len(col))))
                col = _pmod(_pmul(col, tp, p), modulus, p)
            bad = self.frobenius_mismatches(cols)
            if bad:
                raise ArithmeticError(f"Frobenius column {bad[0]} of {self!r} is wrong")
            self._frobenius = tuple(cols)
        return self._frobenius

    def frobenius_mismatches(self, columns=None) -> list:
        """Indices i where column i of the Frobenius matrix is not t^i ** p.

        Frobenius is F_p-linear, so an empty list certifies the matrix on
        every element.  Checks the cached matrix unless columns are given;
        costs m pows.
        """
        columns = self.frobenius_columns() if columns is None else columns
        bad = []
        for i, column in enumerate(columns):
            basis = FieldElement(self, tuple(int(i == j) for j in range(self.m)))
            if (basis ** self.p).coeffs != tuple(column):
                bad.append(i)
        return bad

    def element(self, coeffs) -> FieldElement:
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.m:
            raise ValueError("too many coefficients")
        cs += [0] * (self.m - len(cs))
        return FieldElement(self, tuple(cs))

    def __call__(self, value: int) -> FieldElement:
        """Embed an integer as a constant of the prime field."""
        return FieldElement(self, (value % self.p,) + (0,) * (self.m - 1))

    def from_index(self, k: int) -> FieldElement:
        digits = []
        for _ in range(self.m):
            digits.append(k % self.p)
            k //= self.p
        return FieldElement(self, tuple(digits))

    def elements(self):
        """All field elements in canonical index order."""
        for k in range(self.order):
            yield self.from_index(k)

    def random_element(self, rng) -> FieldElement:
        return self.from_index(rng.randrange(self.order))

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


class RingElement:
    __slots__ = ()

    def __bool__(self):
        return not self.is_zero()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return -self + other


class FieldElement(RingElement):
    """Immutable element of a GF instance."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        p = f.p
        return FieldElement(
            f, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        p, m = f.p, f.m
        if isinstance(other, int):
            return FieldElement(f, tuple(c * other % p for c in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if m == 2:
            (a0, a1), (b0, b1) = a, b
            (r0, r1), h = f._t_squared, a1 * b1
            return FieldElement(f, ((a0 * b0 + r0 * h) % p, (a0 * b1 + a1 * b0 + r1 * h) % p))
        rem = _pmod(_pmul(a, b, p), f.modulus, p)
        return FieldElement(f, tuple(rem) + (0,) * (m - len(rem)))

    def inverse(self) -> FieldElement:
        """x^-1 = (x^p x^(p^2) ... x^(p^(m-1))) / N(x), where N(x) = x^((p^m-1)/(p-1)).

        The conjugates come from the certified Frobenius matrix and the norm
        N(x), which lies in F_p, is inverted as an int mod p.  Raises
        ArithmeticError if the norm is not a nonzero constant.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        conj, rest = self, f.one
        for _ in range(f.m - 1):
            conj = conj.p_power()
            rest = rest * conj
        norm = (self * rest).coeffs
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError(f"norm of {self!r} in {f!r} is not a nonzero constant")
        return rest * pow(norm[0], f.p - 2, f.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.one if e == 0 else f.zero
        return power(self, e % (f.order - 1), f.one)

    def p_power(self) -> FieldElement:
        """self ** p, as the field's precomputed F_p-linear map."""
        f = self.field
        p = f.p
        res = [0] * f.m
        for a, column in zip(self.coeffs, f.frobenius_columns()):
            if a:
                for j, cj in enumerate(column):
                    res[j] += a * cj
        return FieldElement(f, tuple(c % p for c in res))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        return (
            isinstance(other, FieldElement)
            and (other.field is self.field or self.field == other.field)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t" if c > 1 else "t")
            else:
                terms.append(f"{c}*t^{i}" if c > 1 else f"t^{i}")
        return " + ".join(terms) if terms else "0"


_FIELDS: dict[tuple, GF] = {}


def make_extension_field(p: int, m: int = 1) -> GF:
    """Construct (and memoize) the field GF(p^m) with its canonical modulus."""
    field = _FIELDS.get((p, m))
    if field is None:
        field = _FIELDS[(p, m)] = GF(p, m)
    return field


def find_generator(field: GF) -> FieldElement:
    """Smallest (in canonical index order) generator of the unit group."""
    q1 = field.order - 1
    factors = prime_factors(q1)
    for k in range(1, field.order):
        a = field.from_index(k)
        if all((a ** (q1 // ell)) != field.one for ell in factors):
            return a
    raise RuntimeError("no generator found")  # unreachable: unit group is cyclic


def solve_power_equation(field: GF, n: int, a: FieldElement):
    """All x in the field with x**n == a (a nonzero).

    The solution count is 0 or gcd(n, p^m - 1); there are solutions exactly
    when a**((p^m - 1) / gcd(n, p^m - 1)) == 1.  The search walks the cyclic
    subgroup generated by g**n (one multiplication per step), which visits
    every candidate value of x**n exactly once.
    """
    if a.is_zero():
        raise ValueError("right-hand side must be nonzero")
    if n < 1:
        raise ValueError("exponent must be >= 1")
    q1 = field.order - 1
    g = math.gcd(n, q1)
    if (a ** (q1 // g)) != field.one:
        return ()
    gamma = find_generator(field)
    delta = gamma ** n
    period = q1 // g
    hit = None
    z = field.one
    for k in range(period):
        if z == a:
            hit = k
            break
        z = z * delta
    if hit is None:
        raise RuntimeError("solvability criterion held but no solution found")
    step = gamma ** period
    x = gamma ** hit
    sols = []
    for _ in range(g):
        sols.append(x)
        x = x * step
    sols.sort(key=lambda s: s.index)
    for s in sols:
        if (s ** n) != a:
            raise RuntimeError("internal error: bad solution from subgroup walk")
    return tuple(sols)
