"""Grid-level views of library objects (shared test helper, not collected).

The library works on the even subspace of a grid, as coefficients
(``Grid1D.fold``), and never forms the grid-level vectors, index maps or
pointwise kernels that the oracles compare against.  These build them from
the library's own pieces.  The golden outputs' command list and comparator
live here too, shared by ``test_golden`` and the two tools that check outputs.
"""

import math
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np

from confocal_opo import (
    ConfigurationError,
    NumericalFailure,
    phase_match_sinc,
)
from confocal_opo.homodyne import _PHASES, _mode_noise
import confocal_opo.kernels as kernels
from confocal_opo.kernels import _pump_transform, build_kernel_matrix


#: golden outputs of the CLI, one directory per command
GOLDEN = Path(__file__).resolve().parent / "golden"
#: a number as the CLI writes it (``{:.12g}``), also inside a label or key
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def golden_commands():
    """{name: CLI arguments without --out} of every golden output set: each
    figure preset, figs 6 and 9 at b = 900, and ``run`` on each config in
    ``GOLDEN``."""
    cmds = {f"fig{i}": ["fig", "--id", str(i)] for i in (2, 5, 6, 7, 8, 9, 10)}
    cmds.update({f"fig{i}_b900": ["fig", "--id", str(i), "--set", "b=900"] for i in (6, 9)})
    cmds.update({cfg.stem: ["run", "--config", str(cfg)] for cfg in sorted(GOLDEN.glob("*.cfg"))})
    return cmds


def output_files(outdir):
    """{file name: text, byte for byte} of the curves and summary a command
    wrote."""
    files = sorted(outdir.glob("curve*.csv")) + sorted(outdir.glob("summary.txt"))
    return {f.name: f.read_bytes().decode() for f in files}


def deviations(want, got):
    """{file name: why its text differs, or {column: largest relative
    deviation}} of two ``output_files`` sets.

    Lines must match in everything but their numbers.  A number x that
    becomes y deviates by |y - x| / max(|x|, |y|), so an exact 0 must stay
    0.  A CSV's columns are named by its header; the numbers in its comment
    and header lines count as column "echo", and all of another file's as
    column "all"."""
    out = {}
    for fname in sorted(want.keys() | got.keys()):
        if fname not in want or fname not in got:
            out[fname] = "new" if fname in got else "not written"
            continue
        lines, new_lines = want[fname].splitlines(), got[fname].splitlines()
        if len(lines) != len(new_lines):
            out[fname] = f"{len(lines)} -> {len(new_lines)} lines"
            continue
        csv = fname.endswith(".csv")
        worst = {}
        for row, (line, new_line) in enumerate(zip(lines, new_lines), 1):
            parts, new_parts = _NUMBER.split(line), _NUMBER.split(new_line)
            if new_parts[0::2] != parts[0::2]:
                worst = f"text differs on line {row}"
                break
            names = lines[1].split(",") if csv and row > 2 else None
            for j, (x, y) in enumerate(zip(map(float, parts[1::2]), map(float, new_parts[1::2]))):
                name = names[j] if names else "echo" if csv else "all"
                scale = max(abs(x), abs(y))
                worst[name] = max(worst.get(name, 0.0), abs(y - x) / scale if scale else 0.0)
        out[fname] = worst
    return out


def describe(deviation):
    """One line of a ``deviations`` entry."""
    if isinstance(deviation, str):
        return deviation
    return ", ".join(f"{name} {x:.3g}" for name, x in deviation.items())


def flip(g, i):
    """Index of the sign-flipped coordinate on ``g``, x_flip(i) = -x_i."""
    return g.n - 1 - np.asarray(i)


def unfold(g, block):
    """Grid values E @ block of even-subspace coefficients (axis 0, m -> n).

    The orthonormal even basis E (n x m) has column a equal to
    (delta_a + delta_flip(a)) / sqrt(2) for the points left of center, and
    delta_c at the center point of an odd grid; ``Grid1D.fold`` is E^T.
    """
    block = np.asarray(block)
    full = np.concatenate([block, block[: g.n - g.n_even][::-1]])
    return full * g._even_coef().reshape((-1,) + (1,) * (block.ndim - 1))


def cosine(g):
    """C = E^T W E of a near grid ``g``: the unitary DFT W_jk =
    exp(-i q_j x_k) / sqrt(n) onto its conjugate grid, restricted to the even
    subspace.

    W maps flip-even vectors to flip-even vectors and W_j,flip(k) is the
    complex conjugate of W_jk, so the restriction is the real orthogonal
    cosine matrix (2 / sqrt(n)) cos(q_a x_b), with a factor 1/sqrt(2) for
    each center index of an odd grid.  The near block of the kernel is
    C^T far C, with the far block that ``build_kernel_matrix`` gathers.
    """
    m = g.n_even
    cmat = np.cos(np.outer(g.conjugate().points[:m], g.points[:m]))
    cmat *= 2.0 / math.sqrt(g.n)
    if g.n % 2:
        cmat[-1] *= math.sqrt(0.5)
        cmat[:, -1] *= math.sqrt(0.5)
    return cmat


def unpack(blocks, m):
    """The m x m block that the block rows of ``build_kernel_matrix`` hold:
    [i, 0] on the diagonal, [i, 1] below it and its transpose above."""
    nb, _, s, _ = blocks.shape
    full = np.zeros((nb * s, nb * s))
    for i in range(nb):
        rows = slice(i * s, (i + 1) * s)
        full[rows, rows] = blocks[i, 0]
        if i + 1 < nb:
            below = slice((i + 1) * s, (i + 2) * s)
            full[below, rows] = blocks[i, 1]
            full[rows, below] = blocks[i, 1].T
    return full[:m, :m]


def kernel_block(g, p):
    """The m x m far block of ``build_kernel_matrix`` on ``g``, which the
    library keeps in banded block rows and never forms."""
    return unpack(build_kernel_matrix(g, p), g.n_even)


def unchecked_kernel(g, p):
    """``kernel_block`` without the sizing rule: any grid is taken."""
    with patch.object(kernels, "_check_sizing", lambda g, p: None):
        return kernel_block(g, p)


def mode_uv(lam, detuning: float, omega_bar: float):
    """Per-mode (u, v) of a single-mode OPO with gain ``lam`` (threshold units).

    a = 1 + i(detuning + omega_bar), abar = 1 + i(omega_bar - detuning):

        u = (conj(a) abar + lam^2) / D,   v = 2 lam / D,   D = a abar - lam^2
    """
    a = 1.0 + 1j * (detuning + omega_bar)
    abar = 1.0 + 1j * (omega_bar - detuning)
    den = a * abar - lam**2
    return (np.conj(a) * abar + lam**2) / den, 2.0 * lam / den


def ktilde_far(q, q2, p):
    """1-D far-field coupling kernel (threshold units times m).

    K(q, q2) = 1/2 [ G(q+q2) S(q-q2) + G(q-q2) S(q+q2) ] with the library's
    pump transform G and phase-matching factor S(k) = sigma(k/2), the two
    factors that its gathered far block is built from.  A plane pump makes G
    distributional, so it is refused here.
    """
    if p.plane_pump:
        raise ConfigurationError("plane-wave pump gives a distributional far-field kernel")
    q = np.asarray(q, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    return 0.5 * (
        _pump_transform(q + q2, p) * phase_match_sinc((q - q2) / 2.0, p)
        + _pump_transform(q - q2, p) * phase_match_sinc((q + q2) / 2.0, p)
    )


def threshold_margin(g, p):
    """1 - max|lam| of the kernel on ``g``, the strongest mode gain's distance
    from threshold (the eigenvalues alone; the far block has the spectrum of
    the kernel in either domain).  A plane pump at A_p gives A_p at q = 0."""
    return 1.0 - float(np.abs(np.linalg.eigvalsh(kernel_block(g, p))).max())


def analytic_uv_planepump(q, p, omega_bar=None):
    """Closed-form (U, V) of the plane-pump cavity at transverse wavevector q.

    ``mode_uv`` at the mode gain A_p sigma(q), sigma = sinc(l_c q^2 / (2 k_s)).
    |U|^2 - |V|^2 = 1 identically (each even mode is an independent OPO
    below threshold).  ``omega_bar`` overrides the analysis frequency of
    ``p`` (used for the negative-frequency partner).

    Raises ``NumericalFailure`` when |D| vanishes within 1e-14.
    """
    om = p.omega_bar if omega_bar is None else omega_bar
    sig = p.A_p * phase_match_sinc(np.asarray(q, dtype=float), p)
    a_abar = (1.0 + 1j * (p.detuning + om)) * (1.0 + 1j * (om - p.detuning))
    if np.any(np.abs(a_abar - sig**2) <= 1e-14):
        raise NumericalFailure("plane-pump response diverges: a*abar = (A_p sigma)^2")
    return mode_uv(sig, p.detuning, om)


def noise_density(q, p, phase):
    """Plane-pump spatial noise density R(q) = |U(q) + e^{2 i phase} V_-*(q)|^2.

    The library's per-mode noise at the gain A_p sigma(q), at a ``phase`` of
    ``homodyne._PHASES``.  At resonance and zero frequency, phase = pi/2
    gives the squeezed density ((1 - A_p sigma)/(1 + A_p sigma))^2 and
    phase = 0 its reciprocal.
    """
    lam = p.A_p * phase_match_sinc(np.asarray(q, dtype=float), p)
    return 1.0 + _mode_noise(lam, p.detuning, p.omega_bar)[_PHASES.index(phase)]
