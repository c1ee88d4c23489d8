"""F_p-linear maps applied to many vectors at once, on packed coefficient rows.

The census applies the same few maps (Frobenius, multiplication by c, the
determinant map) to hundreds of field elements.  Packing coordinate j of
every element into one int turns each map into m^2 scalar-by-int
products, whatever the number of elements, plus one mod-p pass per slot.
Only a run that enumerates a census imports this module.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain

_ORDER = sys.byteorder  # array items use the machine's byte order


class PackedRows:
    """n vectors of F_p^m held as m ints: int j holds coordinate j of vector i in slot i.

    A slot is an item of the narrowest array typecode that holds every
    pre-reduction sum: at most 2m products of a reduced coefficient with a
    reduced matrix entry (the determinant map's two m-term halves), so at
    most 2m(p-1)^2, and no sum carries into the next slot.  An F_p-linear
    map then costs m^2 scalar-by-int products whatever n is, and a
    reduction one mod-p pass per slot.
    """

    __slots__ = ("p", "m", "code", "size", "multiples")

    def __init__(self, p: int, m: int, n: int):
        bound = 2 * m * (p - 1) ** 2
        self.p, self.m = p, m
        self.code = next(code for code in "BHIQ" if bound < 1 << 8 * array(code).itemsize)
        self.size = n * array(self.code).itemsize
        self.multiples = frozenset(range(0, bound + 1, p))

    def pack(self, vectors) -> list:
        """The m rows of n coefficient vectors, each given as m ints in [0, p)."""
        flat = array(self.code, chain.from_iterable(vectors))
        return [int.from_bytes(flat[j::self.m], _ORDER) for j in range(self.m)]

    def slots(self, row: int) -> array:
        """The n slots of one row, as they stand (unreduced)."""
        return array(self.code, row.to_bytes(self.size, _ORDER))

    def apply(self, columns, rows) -> list:
        """The unreduced image of every vector under the map with these columns."""
        return [
            sum(column[k] * row for column, row in zip(columns, rows) if column[k])
            for k in range(len(rows))
        ]

    def reduce(self, rows) -> list:
        """The rows with every slot taken mod p."""
        p = self.p
        return [
            int.from_bytes(array(self.code, [v % p for v in self.slots(row)]), _ORDER)
            for row in rows
        ]

    def unpack(self, rows):
        """An iterator over the coefficient tuples of reduced rows, in slot order."""
        return zip(*map(self.slots, rows))

    def all_zero(self, rows) -> bool:
        """Whether every coordinate of every vector is 0 mod p."""
        return all(self.multiples.issuperset(self.slots(row)) for row in rows)

    def none_zero(self, rows) -> bool:
        """Whether no vector of reduced rows is 0: no slot of their sum is 0."""
        return 0 not in self.slots(sum(rows))
