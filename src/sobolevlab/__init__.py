"""sobolevlab: finite-section numerics for Sobolev moment-matrix pencils.

The package builds Hermitian moment matrices from planar measures,
assembles the Gram matrices of the induced Sobolev inner products, and
decides boundedness criteria (point evaluations, Wirtinger inequalities,
dominance, comparability, multiplication-operator norms) on sections of
controlled size, with deterministic JSON/CSV reporting.  Each module
(measures, momentmatrix, sobolev, criteria, ...) is the only home of its
public names; the package root defines nothing but ``__version__``.
"""

__version__ = "0.1.0"
