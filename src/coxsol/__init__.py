"""coxsol: exact computations in finite Coxeter groups.

Builds finite Coxeter groups from Coxeter matrices with exact cyclotomic
arithmetic, computes descent algebra idempotents and Orlik-Solomon algebras,
and mechanically verifies three interlocking character decomposition
identities (called conjectures A, B and C throughout) together with the
dihedral decomposition table.
"""

from .cyclo import Cyclo, zeta, rational

__version__ = "0.1.0"

__all__ = ["Cyclo", "zeta", "rational", "__version__"]
