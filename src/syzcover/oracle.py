"""Claims, check verdicts and the point-evaluation oracle.

Every identity the symbolic engine asserts (a polynomial, fraction or
formal polynomial claimed to be zero, or claimed to be nonzero) is a
Claim.  A check's verdict is derived from its claims and its structural
problems alone.  A claim that holds symbolically can be re-checked
numerically: evaluate at sampled curve points over a quadratic
extension (the degree-(p+1)/2 curve's points are squares of points of the
degree-(p+1) curve), with fresh random values for any matrix indeterminates.
The evaluation path shares nothing with the normal-form engine beyond
raw field arithmetic, but agreement is a narrow cross-check: a zero claim
that holds arrives as the reduced zero normal form, which is zero at every
point, so the oracle catches wrong inputs and re-checks the nonzero claims
only.

The random stream is the sampler's draws, then ORACLE_POINTS * len(vars)
draws per formal claim, in claim order, each claim's made before any of
its values is evaluated, so no claim's value moves the stream.

Each sampled point is checked on the curve once, at oracle setup, and
every evaluation trusts that check.  A point that fails it (or too few
points) makes the check being served fail; it never aborts the run.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .curve import CurveContext, CurvePoint, CurvePolynomial, LocalFraction, random_curve_points
from .formal import FormalPolynomial
from .gf import make_extension_field

ORACLE_POINTS = 20  # sampled curve points per oracle


class Claim(namedtuple("Claim", "kind name obj")):
    """One asserted identity: obj should vanish (kind "zero") or not ("nonzero")."""

    __slots__ = ()

    def holds(self) -> bool:
        """The symbolic verdict: is obj zero exactly when the claim says so?"""
        return self.obj.is_zero() == (self.kind == "zero")


def zero_claim(name, obj):
    return Claim("zero", name, obj)


def nonzero_claim(name, obj):
    return Claim("nonzero", name, obj)


class CheckOutcome:
    """A check's claims and structural problems, with its pass and fail texts.

    It passes when every claim holds and no problem was found.  In the fail
    text, {problems} stands for the problems joined by "; " and {failures}
    for the failing claims' names and the problems, joined by ",".
    """

    def __init__(self, passed: str, failed: str = "{problems}", claims=None, problems=None):
        self.passed = passed
        self.failed = failed
        self.claims = [] if claims is None else claims
        self.problems = [] if problems is None else problems

    @property
    def ok(self) -> bool:
        return not self.problems and all(c.holds() for c in self.claims)

    @property
    def detail(self) -> str:
        if self.ok:
            return self.passed
        failures = [c.name for c in self.claims if not c.holds()] + self.problems
        return self.failed.format(problems="; ".join(self.problems), failures=",".join(failures))


class PointOracle:
    """Evaluates claims at ORACLE_POINTS sampled curve points over GF(p^2).

    Raises ValueError when a sampled point is off the curve or too few
    points exist.
    """

    def __init__(self, ctx: CurveContext, seed: int = 0):
        self.ctx = ctx
        self.field = make_extension_field(ctx.p, 2)
        rng = random.Random(seed * 1000003 + ctx.p * 101 + ctx.exponent)
        self.rng = rng
        sampled = random_curve_points(ctx, self.field, ORACLE_POINTS, rng)
        self.points = [CurvePoint(ctx, pt) for pt in sampled]

    def _values(self, obj):
        if isinstance(obj, (CurvePolynomial, LocalFraction)):
            for pt in self.points:
                yield obj.evaluate(pt)
        elif isinstance(obj, FormalPolynomial):
            assignments = [
                {name: self.field.random_element(self.rng) for name in obj.vars}
                for _ in self.points
            ]
            for assignment, pt in zip(assignments, self.points):
                yield obj.evaluate(assignment, pt)
        else:
            raise TypeError(f"cannot evaluate {type(obj).__name__}")

    def check(self, claim: Claim) -> bool:
        if claim.kind == "zero":
            return all(v.is_zero() for v in self._values(claim.obj))
        if claim.kind == "nonzero":
            return any(not v.is_zero() for v in self._values(claim.obj))
        raise ValueError(f"unknown claim kind {claim.kind!r}")


class OracleSuite:
    """Routes claims to a per-context oracle, creating them on demand."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._oracles: dict[CurveContext, PointOracle] = {}

    def oracle_for(self, ctx: CurveContext) -> PointOracle:
        oracle = self._oracles.get(ctx)
        if oracle is None:
            oracle = self._oracles[ctx] = PointOracle(ctx, self.seed)
        return oracle

    def check_all(self, claims) -> tuple[bool, str]:
        count = 0
        for claim in claims:
            try:
                oracle = self.oracle_for(claim.obj.ctx)
            except ValueError as exc:
                return False, f"oracle setup failed: {exc}"
            if not oracle.check(claim):
                return False, f"oracle mismatch on {claim.name}"
            count += 1
        return True, f"{count} identities re-checked at {ORACLE_POINTS} points each"
