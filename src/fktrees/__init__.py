"""First Dirichlet eigenvalues of trees with leaf boundary.

Core objects: trees with boundary, their matching/diameter/radius
invariants, the Dirichlet matrix and first eigenpair, the pendant-decorated
path / comet / generalized fork families, three Rayleigh-quotient-decreasing
edge rewrites, and exhaustive per-class extremal verification with
machine-checkable certificates.

The package's public names are those of its modules: each module's
``__all__`` (every class of ``errors``, which has none) is its one list.
"""

from .errors import *
from .trees import *
from .matching import *
from .spectral import *
from .families import *
from .transforms import *
from .enumeration import *
from .verify import *

__version__ = "0.1.0"
