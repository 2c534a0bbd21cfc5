"""Dense far-kernel oracle and operator forms (shared test helper, not collected).

Evaluates the far-field operator on all n^2 grid pairs and folds it onto the
even subspace with the library's ``Grid1D.fold``, so the gathered even block
of ``build_kernel_matrix`` can be checked against it.  Also rebuilds the
near block C^T K_far,even C and the n x n operator form of a
``KernelMatrix``, which the library no longer forms.
"""

import numpy as np

from confocal_opo import phase_match_sinc
from helpers import flip, ktilde_far, unfold

_ROW_BLOCK = 64


def far_entries(g, p, s):
    """n x n operator form K(q_i, q_j) w_j of the far kernel on the far grid ``g``."""
    qs = g.points
    if p.plane_pump:
        # G collapses to a discrete delta: weight w_j cancels against the
        # 1/w_j of the delta, leaving the two parity channels
        n = g.n
        sig = p.A_p * phase_match_sinc(qs, s)
        entries = np.zeros((n, n))
        idx = np.arange(n)
        entries[idx, idx] += 0.5 * sig
        entries[idx, flip(g, idx)] += 0.5 * sig
        return entries
    entries = np.empty((g.n, g.n))
    for start in range(0, g.n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        entries[rows] = ktilde_far(qs[rows, np.newaxis], qs, p, s) * g.step
    return entries


def fold_block(g, op):
    """Even block E^T op E of an n x n operator on ``g``."""
    return g.fold(g.fold(op).T).T


def even_block(K):
    """m x m even block of ``K`` on its own grid: C^T far C for a near grid."""
    if K.cosine is None:
        return K.far
    return K.cosine.T @ K.far @ K.cosine


def entries(K):
    """n x n operator form ``entries[i, j] = K(x_i, x_j) w_j`` on ``K.grid``."""
    g = K.grid
    return unfold(g, unfold(g, even_block(K)).T).T
