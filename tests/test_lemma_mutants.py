"""What the lemma checks see of each sign-flipped catalog.

lemma_mutant_failures.json holds, for every sign flip of a nonzero
component at p in 3, 5, 7 and 13 (192 mutants), the failing claim names
and the problems of each lemma check that rejects the mutant.  The table
was made while the lemmas were checked on the degree-(p+1)/2 curve in
x, y, z; checking them on the degree-(p+1) curve through x = u^2,
y = v^2, z = w^2 must see every mutant the same way.  Run as a script,
this file prints the table of the current code:

    PYTHONPATH=src python tests/test_lemma_mutants.py > tests/lemma_mutant_failures.json
"""

import json
from pathlib import Path

from catalog_mutants import flip_sign

from syzcover.syz import build_catalog, check_alpha, check_catalog, check_independence, check_kernel_relation

PRIMES = (3, 5, 7, 13)
LEMMA_CHECKS = {
    "catalog_syzygies": check_catalog,
    "kernel_relation": check_kernel_relation,
    "alpha_isomorphism": check_alpha,
    "generator_independence": check_independence,
}
TABLE = Path(__file__).with_name("lemma_mutant_failures.json")


def mutant_failures(p: int) -> dict:
    """"p=P label[idx]" -> {check name: failing claim names, then problems}
    for each sign flip of a nonzero component, listing only the checks that
    fail."""
    catalog = build_catalog(p)
    table = {}
    for label, triple in catalog.triples.items():
        for idx, component in enumerate(triple.components):
            if component.is_zero():
                continue
            mutant = flip_sign(catalog, label, idx)
            seen = {}
            for name, check in LEMMA_CHECKS.items():
                out = check(mutant)
                failures = [c.name for c in out.claims if not c.holds()] + out.problems
                if failures:
                    seen[name] = failures
            table[f"p={p} {label}[{idx}]"] = seen
    return table


def test_lemma_checks_see_each_mutant_as_the_table_says():
    expected = json.loads(TABLE.read_text())
    seen = {}
    for p in PRIMES:
        seen.update(mutant_failures(p))
    assert len(expected) == 192
    assert seen == expected


if __name__ == "__main__":
    rows = {key: seen for p in PRIMES for key, seen in mutant_failures(p).items()}
    print("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(seen)}" for key, seen in rows.items()) + "\n}")
