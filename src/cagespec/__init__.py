"""Cayley sum graphs over finite abelian groups: folded-triangulation cubic
graphs with semiedges, exact character spectra, and crystal lattice families.

Every name in a module's __all__ is importable from the package.
"""

from . import abelian, caysum, crystal, fullerene, intlinalg, spectra
from .abelian import *  # noqa: F403
from .caysum import *  # noqa: F403
from .crystal import *  # noqa: F403
from .fullerene import *  # noqa: F403
from .intlinalg import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

# the modules' public names in module order, each once (three modules list
# InvariantViolation)
_MODULES = (intlinalg, abelian, caysum, spectra, fullerene, crystal)
__all__ = list(dict.fromkeys(["__version__", *(n for m in _MODULES for n in m.__all__)]))
