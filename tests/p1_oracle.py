"""Dense P1 finite-element oracle for the tests.

The library takes the uniform-mesh P1 eigenpairs and their coupling to the
sine basis in closed form (the alias fold).  This module builds the same
objects the long way: the tridiagonal mass and stiffness matrices, their
generalized eigenpairs from scipy.linalg.eigh, and the cross-Gram of hat
functions against sines, so the tests can check the closed forms against an
eigensolver and quadrature rather than against themselves.
"""

import numpy as np
import scipy.linalg


def dense_pencil(M: int) -> tuple[np.ndarray, np.ndarray]:
    """(mass, stiffness) of the uniform P1 space with M cells, (M-1, M-1)."""
    n, h = M - 1, 1.0 / M
    off = np.ones(n - 1)
    mass = (h / 6.0) * (4.0 * np.eye(n) + np.diag(off, 1) + np.diag(off, -1))
    stiffness = (1.0 / h) * (2.0 * np.eye(n) - np.diag(off, 1) - np.diag(off, -1))
    return mass, stiffness


def nodes(M: int) -> np.ndarray:
    return np.arange(1, M) / M


def cross_gram(M: int, K: int) -> np.ndarray:
    """G[i, k] = integral of hat_i(x) * sqrt(2) sin((k+1) pi x) over (0,1).

    Closed form from the exact antiderivative of sin against a hat function:
        G[i, k] = sqrt(2) * 2 (1 - cos(a h)) sin(a x_i) / (a^2 h),  a = (k+1) pi.
    """
    a = np.arange(1, K + 1)[None, :] * np.pi
    h = 1.0 / M
    return np.sqrt(2.0) * 2.0 * (1.0 - np.cos(a * h)) * np.sin(a * nodes(M)[:, None]) / (a**2 * h)


def dense_eigenpairs(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending generalized eigenvalues and mass-orthonormal eigenvector
    columns of the pencil, each column's sign fixed so its first sample is
    positive, as sin(j pi x_1) is for the sampled sines."""
    mass, stiffness = dense_pencil(M)
    lam, vec = scipy.linalg.eigh(stiffness, mass)
    return lam, vec * np.sign(vec[0])[None, :]


def dense_coupling(M: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam_d, C): the dense eigenvalues and C[j, k] = <psi_j, phi_k>, the
    eigenvector columns against the cross-Gram."""
    lam, vec = dense_eigenpairs(M)
    return lam, vec.T @ cross_gram(M, K)


def dense_error_norm(C: np.ndarray, f: np.ndarray, e: np.ndarray) -> float:
    """||Etilde P_h - E|| on the sine modes from the dense (J, K) coupling C,
    discrete factors f (J,) and exact factors e (K,).

    Split phi_k = sum_j C[j, k] psi_j + r_k with r_k orthogonal to the P1
    space, so (Etilde P_h - E) phi_k = sum_j C[j, k] (f_j - e_k) psi_j - e_k r_k
    and <r_k, r_l> = delta_kl - (C^T C)[k, l]: the Gram is W^T W plus
    e_k e_l (I - C^T C)[k, l] with W[j, k] = C[j, k] (f_j - e_k).  No alias
    structure is assumed."""
    W = C * (f[:, None] - e[None, :])
    gram = W.T @ W + np.outer(e, e) * (np.eye(e.size) - C.T @ C)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
