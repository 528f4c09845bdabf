"""An independent oracle for the potential: the gap coefficient by direct matrix arithmetic."""

import numpy as np


def gap_coeff_oracle(u, v, A):
    """u^T (tr(A) I - A - 2 v^T A v (I - v v^T)) u for the 3x3 weight matrix A."""
    M = np.trace(A) * np.eye(3) - A - 2.0 * (v @ A @ v) * (np.eye(3) - np.outer(v, v))
    return float(u @ M @ u)
