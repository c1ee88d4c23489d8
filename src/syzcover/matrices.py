"""Determinant, adjugate and products for small square matrices.

Matrices are tuples of tuples of ring elements, of size 2 or 3 only.
Entries need only +, -, * and p_power (for entrywise Frobenius), so the
same code serves field elements, curve-ring elements over monomial
denominators and formal polynomials; a curve-ring element times a formal
polynomial is the latter's reflected *.
"""

from __future__ import annotations


def mat(rows):
    return tuple(tuple(r) for r in rows)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det(M):
    n = len(M)
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        return (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
    raise ValueError(f"unsupported matrix size {n}")


def adjugate(M):
    n = len(M)
    if n == 2:
        return (
            (M[1][1], -M[0][1]),
            (-M[1][0], M[0][0]),
        )
    if n == 3:
        # the transposed cofactor matrix
        (a, b, c), (d, e, f), (g, h, i) = M
        return (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
    raise ValueError(f"unsupported matrix size {n}")


def entrywise_p_power(M):
    return tuple(tuple(a.p_power() for a in row) for row in M)
