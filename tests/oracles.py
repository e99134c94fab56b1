"""Reference helpers shared by the tests; the package does not use them."""

import numpy as np

from sobolevlab.polynomials import as_coeffs


def recenter(v, a: complex) -> np.ndarray:
    """Taylor coefficients of p about a: p(z) = sum_k b[k] (z - a)**k.

    Classic repeated synthetic division by (z - a); O(d^2) and stable
    for the desk-scale degrees used here.
    """
    c = as_coeffs(v)
    n = len(c)
    if n == 0:
        return c
    b = c.copy()
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            b[k] += a * b[k + 1]
    return b


def counting_eigvalsh(monkeypatch, fails=lambda a: False):
    """Wrap np.linalg.eigvalsh: the returned list collects the size of
    every solve, and a matrix for which ``fails(a)`` holds does not
    converge."""
    sizes, real = [], np.linalg.eigvalsh

    def eigvalsh(a):
        sizes.append(a.shape[0])
        if fails(a):
            raise np.linalg.LinAlgError("no convergence")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return sizes
