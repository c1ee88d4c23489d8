"""One `symbolic` benchmark operation: the lemmas and cover checks without the oracle.

    PYTHONPATH=src python3 bench/symbolic_op.py PRIME SEED

Calls the same public functions that `run_verification` runs for the check
groups `lemmas` and `cover`, in the same order, but hands no claim to the
point oracle.  Prints one JSON object: the prime, the seed and, per check,
its report name, whether it held, and its detail line.  This path exists
because `syzcover verify` refuses primes whose oracle cone scan exceeds the
field cap, while the symbolic engine runs at any prime.
"""

from __future__ import annotations

import json
import random
import sys

from syzcover import cover, syz
from syzcover.gf import make_extension_field

LEMMA_CHECKS = (
    ("catalog_syzygies", syz.check_catalog),
    ("kernel_relation", syz.check_kernel_relation),
    ("alpha_isomorphism", syz.check_alpha),
    ("generator_independence", syz.check_independence),
)
COVER_CHECKS = (
    ("transition_matrix", cover.check_transition),
    ("base_change_matrices", cover.check_base_change),
    ("cocycle_compatibility", cover.check_cocycle),
    ("chart_relations", cover.check_relations),
    ("gluing_substitution", cover.check_gluing),
    ("section_ring_membership", cover.check_section_ring),
    ("determinant_periodicity", cover.check_det_periodicity),
    ("w0_specialization", cover.check_w0_specialization),
)


def run(p: int, seed: int, on_verdict=None) -> dict:
    """Run every check once; on_verdict(name) is called as each one finishes."""
    outcomes = []

    def record(name, outcome):
        outcomes.append({"name": name, "ok": outcome.ok, "detail": outcome.detail})
        if on_verdict is not None:
            on_verdict(name)

    # Looked up at call time so that a tracer's rebinding of the builders applies.
    catalog = syz.build_catalog(p)
    for name, check in LEMMA_CHECKS:
        record(name, check(catalog))
    cd = cover.build_cover_data(p, catalog)
    for name, check in COVER_CHECKS:
        record(name, check(cd))
    record(
        "matrix_ideal_shift",
        cover.check_matrix_ideal_shift(
            make_extension_field(7), random.Random(seed), samples=100
        ),
    )
    return {"prime": p, "seed": seed, "outcomes": outcomes}


def main(argv) -> int:
    p, seed = int(argv[0]), int(argv[1])
    sys.stdout.write(json.dumps(run(p, seed), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
