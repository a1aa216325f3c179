"""Dirichlet-Laplacian spectral data on (0,1) and 1-D P1 finite elements.

Everything downstream works in one of two orthonormal bases: the exact sine
eigenbasis of the Laplacian on (0,1), or the mass-orthonormal generalized
eigenbasis of the (stiffness, mass) pencil of a uniform piecewise-linear FEM
space.  On the uniform mesh h = 1/M the pencil's eigenvectors are the sampled
sines sin(j pi x_i), so its eigenvalues and its coupling to the sine basis are
closed forms (Strang & Fix, An Analysis of the Finite Element Method, 1973,
section 6): no matrix is assembled and nothing is solved.  By discrete sine
orthogonality sine mode k couples to exactly one discrete mode, its alias
j = +-k (mod 2M); alias_fold returns that map.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def _is_whole(n) -> bool:
    """n is an integer (not a float with an integral value, not a bool)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _is_count(n) -> bool:
    """n is a whole number >= 1."""
    return _is_whole(n) and n >= 1


@dataclass(frozen=True)
class DirichletSpectrum:
    """Eigenvalues (k*pi)^2 of -d^2/dx^2 on (0,1) with zero boundary values.

    The eigenfunctions sqrt(2)*sin(k*pi*x) are never tabulated; only
    closed-form integrals against them are evaluated.
    """

    mode_count: int
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not _is_count(self.mode_count):
            raise ValueError(f"mode_count must be a whole number >= 1, got {self.mode_count!r}")
        object.__setattr__(self, "mode_count", int(self.mode_count))
        k = np.arange(1, self.mode_count + 1, dtype=float)
        object.__setattr__(self, "eigenvalues", (k * np.pi) ** 2)


def dirichlet_spectrum(K: int) -> DirichletSpectrum:
    """Spectrum of the Dirichlet Laplacian on (0,1) truncated to K modes."""
    return DirichletSpectrum(mode_count=K)


@dataclass(frozen=True)
class FemSpace:
    """Uniform P1 finite elements on (0,1) with M cells and M-1 interior nodes.

    eigenvalues[j-1] = 6 M^2 (1 - cos(j pi h)) / (2 + cos(j pi h)), j = 1..M-1,
    solve stiffness @ v = lam * mass @ v; the mass-orthonormal eigenvector of
    mode j has nodal values sqrt(6 / (2 + cos(j pi h))) sin(j pi x_i).
    """

    cell_count: int
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def interior_dim(self) -> int:
        return self.cell_count - 1


def _versine(j, M: int):
    """1 - cos(j pi / M), as 2 sin^2(j pi / 2M) to keep its digits at small j."""
    return 2.0 * np.sin(j * np.pi / (2 * M)) ** 2


def assemble_fem(M: int) -> FemSpace:
    """The uniform P1 space with M cells and its generalized eigenvalues, ascending."""
    if not (_is_whole(M) and M >= 2):
        raise ValueError(f"cell count M must be a whole number >= 2 (one interior node), got {M!r}")
    M = int(M)
    v = _versine(np.arange(1, M), M)
    return FemSpace(cell_count=M, eigenvalues=6.0 * M * M * v / (3.0 - v))


def alias_fold(fem: FemSpace, spec: DirichletSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(j, c): the discrete mode j[k-1] (1-based; 0 for none) that sine mode k
    couples to, and the signed coupling c[k-1] = <psi_j, phi_k>_{L2}.

    sum_i sin(j pi x_i) sin(k pi x_i) is M/2 for k = j, -M/2 for k = -j
    (mod 2M) and 0 otherwise, so k meets only j = k mod 2M folded into 1..M-1,
    and none when k = 0 or M (mod 2M).  Against the hat functions,
    <hat_i, phi_k> = sqrt(2) 2 (1 - cos(k pi h)) sin(k pi x_i) / ((k pi)^2 h),
    which gives c = +-sqrt(6 / (2 + cos(k pi h))) sqrt(2) (1 - cos(k pi h)) M^2 / (k pi)^2,
    + for k = j and - for k = -j (mod 2M); cos(k pi h) = cos(j pi h) there.
    """
    M = fem.cell_count
    k = np.arange(1, spec.mode_count + 1)
    r = k % (2 * M)
    j = np.where(r < M, r, 2 * M - r) * (r != M)
    v = _versine(j, M)
    c = np.sqrt(6.0 / (3.0 - v)) * np.sqrt(2.0) * v * M * M / (k * np.pi) ** 2
    return j, np.where(r < M, c, -c)  # c = 0 where j = 0


def spectral_coupling(fem: FemSpace, spec: DirichletSpectrum) -> np.ndarray:
    """C[j, k] = <psi_j, phi_k>_{L2} between discrete and exact eigenfunctions,
    the alias fold scattered into a dense (J, K) array (one nonzero per column).

    Because the discrete eigenvectors are mass-orthonormal these are
    simultaneously the eigen-coordinates of the projected modes P_h phi_k.
    """
    j, c = alias_fold(fem, spec)
    C = np.zeros((fem.interior_dim, spec.mode_count))
    live = np.nonzero(j)[0]
    C[j[live] - 1, live] = c[live]
    return C
