"""Two-DFT near-kernel oracle (shared test helper, not collected).

Builds the near-field operator as the full complex similarity transform
B K_far F of the far-field operator on the conjugate grid, over all n grid
points with no use of the even subspace, so the library's far block, taken
to the near grid by the cosine oracle of ``helpers``, can be checked against
it.
"""

import math

import numpy as np

from far_reference import entries
from helpers import unchecked_kernel


def near_entries(g, p):
    """n x n operator form of the near kernel on ``g`` by two complex DFTs."""
    conj = g.conjugate()
    far_op = entries(conj, unchecked_kernel(conj, p))
    # x -> q transform matrix (unitary-normalized, exact inverse pair on
    # conjugate grids since dq dx = 2 pi / n)
    fmat = (g.step / math.sqrt(2.0 * math.pi)) * np.exp(
        -1j * np.outer(conj.points, g.points)
    )
    bmat = (conj.step / g.step) * fmat.conj().T
    near = bmat @ far_op @ fmat
    assert np.abs(near.imag).max() <= 1e-10 * np.abs(near.real).max()
    return near.real
