import itertools
import operator
import time

import pytest
from fiber_reference import linear_kernel
from hypothesis import given, strategies as st

from syzcover import gf
from syzcover.gf import (
    GF,
    _is_irreducible,
    _pgcd,
    _pmod,
    _pmul,
    _ppowmod,
    _trim,
    find_generator,
    is_prime,
    make_extension_field,
    power,
    prime_factors,
    solve_power_equation,
)
from syzcover.matrices import entrywise_p_power, mat


def multiplicative_order(a) -> int:
    """Least n >= 1 with a**n == 1; divides p^m - 1."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    n = a.field.order - 1
    for ell in prime_factors(n):
        while n % ell == 0 and (a ** (n // ell)) == a.field.one:
            n //= ell
    return n


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_factors():
    assert prime_factors(390624) == (2, 3, 13, 313)
    assert prime_factors(80) == (2, 5)


def test_is_prime_stops_at_the_least_factor():
    """2q and 3q, q = 10^16 + 61 prime, are refused at their factor 2 or 3:
    factoring them fully would trial-divide up to sqrt(q) = 10^8."""
    q = 10**16 + 61
    start = time.perf_counter()
    assert not is_prime(2 * q) and not is_prime(3 * q)
    assert time.perf_counter() - start < 0.1


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_extension_field(4)
    with pytest.raises(ValueError):
        make_extension_field(2)
    with pytest.raises(ValueError):
        make_extension_field(5, 0)


def test_prime_field_basics():
    F3 = make_extension_field(3, 1)
    assert F3.order == 3
    assert len(F3.modulus) == 2  # monic linear modulus
    assert F3(1) + F3(2) == F3(0)
    assert F3(2) * F3(2) == F3(1)


def test_all_units_have_full_torsion_in_gf81():
    F = make_extension_field(3, 4)
    assert F.order == 81
    one = F.one
    for a in F.elements():
        if not a.is_zero():
            assert a ** 80 == one


def test_frobenius_fixed_field_of_gf25():
    F = make_extension_field(5, 2)
    fixed = [a for a in F.elements() if a ** 5 == a]
    assert len(fixed) == 5
    assert linear_kernel(F, lambda x: x.p_power() - x) == tuple(F(k) for k in range(5))


@pytest.mark.parametrize("p,m", [(3, 4), (5, 2), (7, 2), (3, 1), (3, 2), (3, 3)])
def test_frobenius_matrix_equals_pow_on_every_element(p, m):
    """p_power, the ring protocol's Frobenius, is x ** p on every element."""
    F = make_extension_field(p, m)
    for a in F.elements():
        assert a.p_power() == a ** p


@pytest.mark.parametrize("p,m", [(5, 8), (7, 6)])
def test_frobenius_matrix_equals_pow_sampled(rng, p, m):
    F = make_extension_field(p, m)
    for _ in range(200):
        a = F.random_element(rng)
        assert a.p_power() == a ** p


@pytest.mark.parametrize(
    "p,m,value,order",
    [(7, 1, 2, 3), (5, 1, 1, 1), (3, 1, 2, 2)],
)
def test_multiplicative_order_prime_fields(p, m, value, order):
    F = make_extension_field(p, m)
    assert multiplicative_order(F(value)) == order


def test_multiplicative_order_rejects_zero():
    F = make_extension_field(5)
    with pytest.raises(ValueError):
        multiplicative_order(F.zero)


@pytest.mark.parametrize("p,expected", [(5, 2), (3, 2), (7, 3)])
def test_find_generator_prime_fields(p, expected):
    F = make_extension_field(p)
    g = find_generator(F)
    assert g == F(expected)
    assert multiplicative_order(g) == p - 1


def test_find_generator_extension_field():
    F = make_extension_field(3, 4)
    g = find_generator(F)
    assert multiplicative_order(g) == 80
    # smallest generator in index order: no smaller index generates
    for k in range(1, g.index):
        assert multiplicative_order(F.from_index(k)) < 80


def test_solve_power_equation_f3():
    F = make_extension_field(3)
    sols = solve_power_equation(F, 2, F(-2))  # -2 == 1 mod 3
    assert set(sols) == {F(1), F(2)}


def test_solve_power_equation_gf9_no_solution():
    F = make_extension_field(3, 2)
    # criterion: 2**((9-1)/gcd(8,8)) == 2 != 1, so no solutions
    assert solve_power_equation(F, 8, F(2)) == ()
    brute = [a for a in F.elements() if not a.is_zero() and a ** 8 == F(2)]
    assert brute == []


def test_solve_power_equation_gf81_matches_brute_force():
    F = make_extension_field(3, 4)
    target = F(2)
    sols = solve_power_equation(F, 8, target)
    assert len(sols) == 8
    brute = sorted(
        (a for a in F.elements() if not a.is_zero() and a ** 8 == target),
        key=lambda a: a.index,
    )
    assert list(sols) == brute


def test_solve_power_equation_postconditions(rng):
    for p, m in [(3, 2), (5, 2), (7, 1), (3, 4)]:
        F = make_extension_field(p, m)
        q1 = F.order - 1
        for _ in range(25):
            n = rng.randrange(1, 2 * q1)
            a = F.from_index(rng.randrange(1, F.order))
            sols = solve_power_equation(F, n, a)
            for x in sols:
                assert x ** n == a
            import math

            g = math.gcd(n, q1)
            solvable = a ** (q1 // g) == F.one
            assert len(sols) == (g if solvable else 0)


def test_field_axioms_on_random_triples(rng):
    fields = [
        make_extension_field(3),
        make_extension_field(5),
        make_extension_field(7),
        make_extension_field(3, 4),
        make_extension_field(5, 2),
        make_extension_field(5, 3),
    ]
    for F in fields:
        for _ in range(1000):
            a, b, c = (F.random_element(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == F.one


def test_unit_torsion_exhaustive_small_fields():
    for p, m in [(3, 2), (5, 2), (7, 2), (3, 4), (13, 1)]:
        F = make_extension_field(p, m)
        assert F.order <= 10**4
        for a in F.elements():
            if not a.is_zero():
                assert a ** (F.order - 1) == F.one


def test_unit_torsion_sampled_large_field(rng):
    F = make_extension_field(5, 8)
    for _ in range(50):
        a = F.random_element(rng)
        if not a.is_zero():
            assert a ** (F.order - 1) == F.one


def test_frobenius_is_ring_homomorphism(rng):
    for p, m in [(3, 4), (5, 2), (7, 2)]:
        F = make_extension_field(p, m)
        for _ in range(100):
            a, b = F.random_element(rng), F.random_element(rng)
            assert (a + b).p_power() == a.p_power() + b.p_power()
            assert (a * b).p_power() == a.p_power() * b.p_power()


def test_entrywise_p_power_on_field_matrices(rng):
    F = make_extension_field(13, 2)
    M = mat([[F.random_element(rng) for _ in range(2)] for _ in range(2)])
    assert entrywise_p_power(M) == tuple(tuple(x ** 13 for x in row) for row in M)


def test_modulus_is_deterministic():
    a = make_extension_field(5, 8)
    b = make_extension_field(5, 8)
    assert a is b
    # frozen canonical moduli (first irreducible in counting order)
    assert a.modulus == (2, 0, 0, 0, 0, 0, 0, 0, 1)  # x^8 + 2
    assert make_extension_field(3, 4).modulus == (2, 1, 0, 0, 1)  # x^4 + x + 2
    assert make_extension_field(7, 6).modulus == (2, 0, 0, 0, 0, 0, 1)  # x^6 + 2


@given(st.integers(0, 624), st.integers(0, 624))
def test_gf625_commutativity(i, j):
    F = make_extension_field(5, 4)
    a, b = F.from_index(i), F.from_index(j)
    assert a + b == b + a
    assert a * b == b * a


@given(st.integers(1, 624), st.integers(0, 6))
def test_gf625_power_laws(i, e):
    F = make_extension_field(5, 4)
    a = F.from_index(i)
    acc = F.one
    for _ in range(e):
        acc = acc * a
    assert a ** e == acc


@pytest.mark.parametrize("p, m", ((3, 1), (3, 2), (5, 2), (7, 1)))
def test_pow_equals_repeated_product(rng, p, m):
    F = make_extension_field(p, m)
    for x in (F.zero, F.one, *(F.from_index(rng.randrange(2, F.order)) for _ in range(3))):
        for n in (0, 1, 2, 3, 4, 7, 8, p - 1, p, p + 1):
            acc = F.one
            for _ in range(n):
                acc = acc * x
            assert x ** n == acc


class _Counted(int):
    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(int(self) * int(other))


@pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 8, 100, 101, 255, 256))
def test_power_squares_only_while_bits_remain(n):
    _Counted.products = 0
    assert power(_Counted(3), n, _Counted(1)) == 3 ** n
    # squarings, plus one product per set bit above the lowest
    expected = 0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1
    assert _Counted.products == expected


def test_ppowmod_equals_repeated_product():
    p, f = 5, [2, 0, 0, 1]  # x^3 + 2 over F_5
    a = [3, 1, 4]
    acc = [1]
    for e in range(12):
        assert _ppowmod(a, e, f, p) == acc
        acc = _pmod(_pmul(acc, a, p), f, p)


@pytest.mark.parametrize("p, m", ((5, 8), (7, 6), (7, 1)))
def test_int_scalar_equals_embedded_constant(rng, p, m):
    F = make_extension_field(p, m)
    for x in (F.zero, F.one, *(F.random_element(rng) for _ in range(5))):
        for k in (0, 1, -1, -2, p, 2 * p + 3, True):
            left, right, embedded = k * x, x * k, F(k) * x
            assert left.field is right.field is F
            assert left.coeffs == right.coeffs == embedded.coeffs


@pytest.mark.parametrize("p", (3, 7))
def test_prime_field_ops_match_generic_path(p):
    F = make_extension_field(p)
    twin = GF(p)  # equal to F but not F itself, so _coerce compares the fields by value
    assert twin == F and twin is not F
    for x in F.elements():
        a = x.coeffs[0]
        for y in F.elements():
            b = y.coeffs[0]
            y_twin = twin.element(y.coeffs)
            for op in (operator.add, operator.sub, operator.mul):
                fast = op(x, y)
                assert fast.field is F
                assert fast.coeffs == op(x, y_twin).coeffs == (op(a, b) % p,)


def test_prime_fields_of_different_characteristic_do_not_mix():
    x, y = make_extension_field(7)(3), make_extension_field(5)(2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different fields"):
            op(x, y)


def _product_reference(x, y):
    """x * y as the remainder of the polynomial product by the modulus, padded to m."""
    F = x.field
    rem = _pmod(_pmul(list(x.coeffs), list(y.coeffs), F.p), list(F.modulus), F.p)
    return tuple(rem) + (0,) * (F.m - len(rem))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_quadratic_product_equals_reference_on_every_pair(p):
    F = make_extension_field(p, 2)
    for x, y in itertools.product(F.elements(), repeat=2):
        assert (x * y).coeffs == _product_reference(x, y)


@pytest.mark.parametrize("p", (101, 251))
def test_quadratic_product_equals_reference_sampled(rng, p):
    F = make_extension_field(p, 2)
    for _ in range(500):
        x, y = F.random_element(rng), F.random_element(rng)
        product = x * y
        assert product.field is F
        assert product.coeffs == y.__rmul__(x).coeffs == _product_reference(x, y)
        k = rng.randrange(-2 * p, 2 * p)
        assert (x * k).coeffs == (k * x).coeffs == _product_reference(F(k), x)


@pytest.mark.parametrize("p, m", ((3, 1), (7, 1), (3, 3), (5, 3)))
def test_other_degrees_take_the_list_remainder(p, m):
    F = make_extension_field(p, m)
    for x, y in itertools.product(F.elements(), repeat=2):
        assert (x * y).coeffs == y.__rmul__(x).coeffs == _product_reference(x, y)


def _is_irreducible_reference(f, p):
    """The Rabin-style test gf used before Ben-Or's: x^(p^m) = x mod f, and
    gcd(f, x^(p^(m/l)) - x) = 1 for each prime l dividing m, from all m
    Frobenius powers of x built up front."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    frob = {}  # k -> x^(p^k) mod f
    t = x
    for k in range(1, m + 1):
        t = _ppowmod(t, p, f, p)
        frob[k] = t
    if _trim(list(frob[m])) != x:
        return False
    for ell in prime_factors(m):
        diff = list(frob[m // ell])
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _trim(diff), p)
        if len(g) - 1 != 0:
            return False
    return True


@pytest.mark.parametrize("p, degrees", ((3, range(2, 6)), (5, range(2, 5)), (7, range(2, 4))))
def test_ben_or_agrees_with_reference_on_every_small_monic(p, degrees):
    for m in degrees:
        verdicts = []
        for low in itertools.product(range(p), repeat=m):
            f = list(low) + [1]
            verdicts.append(_is_irreducible(f, p))
            assert verdicts[-1] == _is_irreducible_reference(f, p), (p, f)
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p, m", ((3, 4), (5, 8), (7, 6), (11, 20), (13, 24), (251, 2)))
def test_ben_or_finds_the_reference_first_irreducible(monkeypatch, p, m):
    found = gf._find_irreducible(p, m)
    monkeypatch.setattr(gf, "_is_irreducible", _is_irreducible_reference)
    assert found == gf._find_irreducible(p, m)


def _inverse_reference(x):
    return x ** (x.field.order - 2)


@pytest.mark.parametrize(
    "p, m", [(p, 2) for p in (3, 5, 7, 11, 13)] + [(3, 4), (5, 4)] + [(p, 1) for p in (3, 13)]
)
def test_inverse_equals_pow_on_every_unit(p, m):
    F = make_extension_field(p, m)
    for k in range(1, F.order):
        x = F.from_index(k)
        inv = x.inverse()
        assert inv == _inverse_reference(x), x
        assert x * inv == F.one


@pytest.mark.parametrize("p, m", ((251, 2), (5, 8), (7, 6)))
def test_inverse_equals_pow_sampled(rng, p, m):
    F = make_extension_field(p, m)
    for _ in range(2000):
        x = F.from_index(rng.randrange(1, F.order))
        assert x.inverse() == _inverse_reference(x)


@pytest.mark.parametrize("p, m", ((7, 1), (7, 2), (5, 8)))
def test_inverse_of_zero_raises(p, m):
    F = make_extension_field(p, m)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


@pytest.mark.parametrize("entry", (0, 1))
def test_inverse_rejects_a_norm_that_is_not_a_unit_of_the_prime_field(entry):
    """A corrupted Frobenius column makes N(t) leave F_p (entry 0) or vanish
    (entry 1: Frob(t) becomes 0); either raises instead of returning a value."""
    F = make_extension_field(13, 2)
    columns = F.frobenius_columns()
    bad = list(columns[1])
    bad[entry] = (bad[entry] + 1) % 13
    try:
        F._frobenius = (columns[0], tuple(bad))
        with pytest.raises(ArithmeticError, match="not a nonzero constant"):
            F.element((0, 1)).inverse()
    finally:
        F._frobenius = columns


@pytest.mark.parametrize("p, m", ((3, 1), (3, 2), (5, 2), (3, 3)))
def test_is_zero_and_bool_agree_with_the_zero_tuple_on_every_element(p, m):
    F = make_extension_field(p, m)
    for x in F.elements():
        zero = x.coeffs == (0,) * m
        assert x.is_zero() is zero
        assert bool(x) is not zero
