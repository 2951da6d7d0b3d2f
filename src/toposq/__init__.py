"""toposq: contexts, spectral presheaves, daseinisation and generalised values
for finite-dimensional quantum systems.

The package models the poset of abelian subalgebra contexts of a matrix
algebra, the spectral presheaf over it with its Heyting algebra of clopen
subobjects, inner/outer approximation (daseinisation) of projections and
self-adjoint operators to contexts, and the generalised values operators take
on the pseudo-states of unit vectors.

A name is public exactly when its module's ``__all__`` lists it; the package
re-exports the union of those lists.
"""

from . import config, contexts, daseinisation, errors, linalg, operators, presheaf, states
from .config import *
from .contexts import *
from .daseinisation import *
from .errors import *
from .linalg import *
from .operators import *
from .presheaf import *
from .states import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, contexts, daseinisation, errors, linalg, operators, presheaf, states)
    for name in module.__all__
]
