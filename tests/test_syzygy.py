from itertools import combinations

import pytest
from catalog_mutants import flip_sign, replace_triple

from syzcover.oracle import OracleSuite
from syzcover.syz import (
    build_catalog,
    check_alpha,
    check_catalog,
    check_independence,
    check_kernel_relation,
    degrees_consistent,
)

PRIMES = (3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def catalogs():
    return {p: build_catalog(p) for p in PRIMES}


def test_s1_is_a_syzygy_of_the_squares(catalogs):
    s1 = catalogs[3]["s1"]
    assert s1.combination().is_zero() and degrees_consistent(s1)


def test_catalog_contains_exactly_the_named_triples(catalogs):
    cat = catalogs[3]
    assert list(cat.triples) == [
        "R0", "R1", "R2", "R3",
        "psi1", "psi2", "psi3",
        "s1", "s2", "s3", "s1'", "s2'", "s3'",
    ]
    u, v, w = cat.quad.variables()
    x, y, z = u ** 2, v ** 2, w ** 2
    assert cat.kernel_form == (z, -y, x) == (w ** 2, -(v ** 2), u ** 2)
    assert cat.koszul_kernel_form == (y, -x, z)


@pytest.mark.parametrize("p", PRIMES)
def test_catalog_holds_each_triple_once(catalogs, p):
    """No two triples agree in components, data and declared degree."""
    triples = catalogs[p].triples.values()
    for t1, t2 in combinations(triples, 2):
        same = (t1.components, t1.data, t1.total_degree) == (t2.components, t2.data, t2.total_degree)
        assert not same, (t1.label, t2.label)


def test_r0_expands_to_zero_for_p3(catalogs):
    cat = catalogs[3]
    r0 = cat["R0"]
    u, v, w = cat.quad.variables()
    x, y, z = u ** 2, v ** 2, w ** 2
    assert r0.components == (y, x, -(x * y))
    assert r0.data == (x ** 3, y ** 3, x ** 2 + y ** 2)
    assert r0.combination().is_zero()


def test_non_syzygy_rejected(catalogs):
    cat = catalogs[3]
    u, v, w = cat.quad.variables()
    one = cat.quad.one()
    bogus = replace_triple(
        cat, "s1", components=(one, one, one), data=(u ** 2, v ** 2, w ** 2), total_degree=2
    )
    out = check_catalog(bogus)
    assert not out.ok
    assert "syzygy s1" in out.detail


@pytest.mark.parametrize("p", PRIMES)
def test_all_catalog_entries_pass(catalogs, p):
    out = check_catalog(catalogs[p])
    assert out.ok, out.detail


@pytest.mark.parametrize("p", PRIMES)
def test_degree_bookkeeping(catalogs, p):
    cat = catalogs[p]
    for triple in cat.triples.values():
        for a, f in zip(triple.components, triple.data):
            if not a.is_zero():
                assert a.homogeneous_degree() + f.homogeneous_degree() == triple.total_degree


def test_declared_degrees(catalogs):
    """Degrees in u, v, w: twice the paper's degrees in x, y, z."""
    for p in PRIMES:
        cat = catalogs[p]
        assert cat["R0"].total_degree == 2 * ((3 * p - 1) // 2)
        assert cat["R1"].total_degree == 2 * (p + 1)
        assert cat["R2"].total_degree == 2 * ((3 * p + 1) // 2)
        assert cat["R3"].total_degree == 2 * ((3 * p + 1) // 2)
        for i in (1, 2, 3):
            assert cat[f"s{i}'"].total_degree == 2 * ((3 * p + 1) // 2)
            assert cat[f"psi{i}"].total_degree == 2 * 2
            # degree 1 relative to the twisted bundles (base twists 3 and 3p)
            assert cat[f"s{i}"].total_degree - 3 == 1
            assert cat[f"s{i}'"].total_degree - 3 * p == 1


def test_sprime_matches_expected_p3(catalogs):
    cat = catalogs[3]
    u, v, w = cat.quad.variables()
    s1p = cat["s1'"]
    assert s1p.components == (-(w ** 2) * u ** 2, v ** 2 * w ** 2, u ** 4 - v ** 4)
    assert s1p.data == (u ** 6, v ** 6, w ** 6)


def test_relation_among_s_generators(catalogs):
    # w^2 s1 - v^2 s2 + u^2 s3 = 0, componentwise
    for p in (3, 5):
        cat = catalogs[p]
        u, v, w = cat.quad.variables()
        for comp in range(3):
            acc = (
                w ** 2 * cat["s1"].components[comp]
                - v ** 2 * cat["s2"].components[comp]
                + u ** 2 * cat["s3"].components[comp]
            )
            assert acc.is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_relation(catalogs, p):
    assert check_kernel_relation(catalogs[p]).ok


def test_kernel_relation_detects_sign_flip(catalogs):
    cat = catalogs[3]
    mutated = flip_sign(cat, "s1'", 0)
    assert not check_kernel_relation(mutated).ok


@pytest.mark.parametrize("p", (3, 13))
def test_alpha_well_defined(catalogs, p):
    assert check_alpha(catalogs[p]).ok


def test_alpha_detects_wrong_image(catalogs):
    cat = catalogs[3]
    u, v, w = cat.quad.variables()
    zero = cat.quad.zero()
    wrong = replace_triple(cat, "s2", components=(-(w ** 2), zero, v ** 2))
    assert not check_catalog(wrong).ok
    assert not check_kernel_relation(wrong).ok
    assert not check_alpha(flip_sign(cat, "psi2", 1)).ok


@pytest.mark.parametrize("p", PRIMES)
def test_independence(catalogs, p):
    assert check_independence(catalogs[p]).ok


def test_independence_minor_value_p3(catalogs):
    cat = catalogs[3]
    u, v, w = cat.quad.variables()
    x, y, z = u ** 2, v ** 2, w ** 2
    r0, r1 = cat["R0"], cat["R1"]
    minor = r0.components[0] * r1.components[1] - r0.components[1] * r1.components[0]
    assert minor == x ** 2 + y ** 2


def test_identical_rows_are_dependent(catalogs):
    cat = catalogs[3]
    r0 = cat["R0"]
    dup = replace_triple(
        cat, "R1", components=r0.components, data=r0.data, total_degree=r0.total_degree
    )
    assert not check_independence(dup).ok


@pytest.mark.parametrize("p", (3, 5, 7))
def test_oracle_confirms_all_checks(catalogs, p):
    suite = OracleSuite(seed=1)
    for check in (check_catalog, check_kernel_relation, check_alpha, check_independence):
        out = check(catalogs[p])
        assert out.ok
        ok, msg = suite.check_all(out.claims)
        assert ok, msg
