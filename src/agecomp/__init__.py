"""SVD component models of demographic age schedules.

Decompose a matrix of age schedules once, represent every schedule as a
short weighted sum of fixed age-varying components, then smooth, fit,
predict from covariates, and cluster schedules through their weights.

Every name is imported from the module that defines it, for example
``from agecomp.schedule import build_basis``; importing the package loads
none of its modules: ``linalg``, ``schedule``, ``regress``, ``cluster``,
``measures``, ``errors``, ``io`` and ``cli``.
"""

__version__ = "0.1.0"
