"""Mutants of a generator catalog, for the tests that must see a check fail.

A mutant is the catalog with the fields of one triple replaced.  The
triple keeps its label and its place in build_catalog's order, so a
failing check names it as it names the original.
"""


def replace_triple(catalog, label, **fields):
    """catalog with triple `label` rebuilt by SyzygyTriple._replace(**fields)."""
    triples = dict(catalog.triples)
    triples[label] = triples[label]._replace(**fields)
    return catalog._replace(triples=triples)


def flip_sign(catalog, label, idx):
    """catalog with component idx of triple `label` negated."""
    components = list(catalog[label].components)
    components[idx] = -components[idx]
    return replace_triple(catalog, label, components=tuple(components))
