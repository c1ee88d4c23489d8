"""The cover's matrices written out by hand: the reference for the ones
syzcover.cover solves from the catalog's frames.

T is the change of frame between the two charts, and H_U, H_W express each
chart's primed frame in the p-th powers of its frame.
"""

from syzcover.matrices import mat


def transition_matrix(ctx):
    u, v, w = ctx.variables()
    f = ctx.fraction
    return mat([[f(0), f(-w, 1, 0)], [f(u, 0, 1), f(v * v, 1, 1)]])


def h_matrices(ctx):
    p = ctx.p
    u, v, w = ctx.variables()
    f = ctx.fraction
    up1 = u ** (p + 1)
    vp1 = v ** (p + 1)
    h_u = mat([
        [f(v ** 2 * w ** (p - 1), p + 1, 0), f(2 * up1 + vp1, p + 1, 0)],
        [f(up1 - vp1, p + 1, 0), f(-(v ** (p - 1)) * w ** 2, p + 1, 0)],
    ])
    h_w = mat([
        [f(-(u ** 2) * v ** (p - 1), 0, p + 1), f(-(up1 + 2 * vp1), 0, p + 1)],
        [f(-(2 * up1 + vp1), 0, p + 1), f(-(u ** (p - 1)) * v ** 2, 0, p + 1)],
    ])
    return h_u, h_w
