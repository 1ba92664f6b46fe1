"""Symbolic-numeric toolkit for renormalised FitzHugh-Nagumo-type SPDE-ODE systems.

Subpackages by theme:

* :mod:`fhnspde.symbols` -- graded symbol algebra (trees, homogeneity, enumeration)
* :mod:`fhnspde.hopf` -- structure-group coproduct into the plus-algebra
* :mod:`fhnspde.renorm` -- renormalisation group, renormalised nonlinearity
* :mod:`fhnspde.kernels` -- truncated heat kernel, mollification, constants
* :mod:`fhnspde.noise` -- white noise sampling and mollification, radial transforms
* :mod:`fhnspde.solver` -- spectral ETD solver for the coupled system, epsilon sweeps
* :mod:`fhnspde.cli` -- command line front end
"""

__version__ = "0.1.0"

from .symbols import (  # noqa: F401
    Homogeneity,
    Scaling,
    StructureError,
    Symbol,
    SymbolTable,
    enumerate_symbols,
    from_text,
    homogeneity,
)
