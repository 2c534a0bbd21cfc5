"""Dense LU oracle for the input/output transform (shared test helper).

Not collected by pytest.  Solves the cavity relation

    [a I - K^2 / abar] B_out = [(2 - a) I + K^2 / abar] B_in + (2 / abar) K B_in^+

directly for the matrices U and V by one LU factorization, with no use of
the eigenmodes, so the mode route of the library can be checked against it.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from far_reference import entries
from helpers import kernel_block


def lu_uv(g, p, omega_bar=None):
    """(U, V) in operator form on the grid ``g`` at (p.detuning, omega_bar)."""
    om = p.omega_bar if omega_bar is None else omega_bar
    a = 1.0 + 1j * (p.detuning + om)
    abar = 1.0 + 1j * (om - p.detuning)
    kop = np.asarray(entries(g, kernel_block(g, p)), dtype=complex)
    kk = kop @ kop
    eye = np.eye(g.n)
    lu = lu_factor(a * eye - kk / abar)
    return lu_solve(lu, (2.0 - a) * eye + kk / abar), lu_solve(lu, (2.0 / abar) * kop)


def residuals(u, v):
    """Max-norm residuals of U U^+ - V V^+ = I and U V^T = V U^T."""
    r1 = np.abs(u @ u.conj().T - v @ v.conj().T - np.eye(u.shape[0])).max()
    r2 = np.abs(u @ v.T - v @ u.T).max()
    return float(r1), float(r2)


def lu_noise(g, p):
    """Normalized homodyne noise vn(lvec, phase) of the LU route, two solves.

    vn = 1 + (2 w / N) [ |P V^+ l|^2 + Re(e^{-2 i phi} (P U^T l*)^T V_-^T l*) ]
    with N = w l^+ l for the LO-on-detector vector l, P the even projector
    and V_- the transform solved again at the opposite analysis frequency.
    """
    u, v = lu_uv(g, p)
    _, v_neg = lu_uv(g, p, omega_bar=-p.omega_bar)
    w = g.step

    def vn(lvec, phase):
        n_shot = w * float(np.vdot(lvec, lvec).real)
        y = v.conj().T @ lvec
        y = 0.5 * (y + y[::-1])
        row = np.conj(lvec) @ u
        row = 0.5 * (row + row[::-1])
        anom = complex(row @ (v_neg.T @ np.conj(lvec)))
        s_plus = float(np.vdot(y, y).real)
        return 1.0 + (2.0 * w / n_shot) * (s_plus + (np.exp(-2j * phase) * anom).real)

    return vn
