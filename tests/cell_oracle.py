"""Cellwise Gauss quadrature of the exact mode factors: the test oracle for
the closed-form and G_rho rows of levyspde.errors.

The panels are the library's global partition for the top mode with the
level's cell edges merged in, so no panel straddles a cell edge; the cell
integrals are panel sums reduced per cell, the squared integral one sum over
all panels.  Nothing here uses E_{rho,2} or the G_rho table.
"""

import numpy as np

import levyspde.errors as errors


def cell_integrals(kind, lam, edges):
    """(p1, p2) for modes lam on the cells of edges: p1[k, n] = int over cell n
    of e_k(s) ds and p2[k] = int_0^T e_k(s)^2 ds, T = edges[-1]."""
    lam = np.atleast_1d(np.asarray(lam, float))
    edges = np.asarray(edges, float)
    pts = np.sort(np.concatenate([errors._global_partition(kind, float(lam.max()), float(edges[-1])), edges]))
    bks = pts[np.append(True, np.diff(pts) > 0.0)]
    nodes, w = errors._panel_nodes(bks)
    vals = errors._noise_factor(kind, lam[:, None, None], nodes[None, :, :])  # (K, panels, GAUSS_ORDER)
    first = np.searchsorted(bks, edges[:-1])  # the first panel of each cell
    p1 = np.add.reduceat((w * vals).sum(axis=2), first, axis=1)
    p2 = (w * vals * vals).sum(axis=(1, 2))
    return p1, p2
