"""Exact repetition thresholds of Sturmian words.

Sturmian words are the codings of irrational circle rotations by a
two-interval partition.  This package computes exactly, with no floating
point: every order and floor is decided on integers (pairs A + B*alpha
and rational rotations), and a QuadReal is built to report a value:

* continued fractions of quadratic irrationals: parsing, canonical form,
  convergents, Lagrange constants, equivalence (`cf`);
* the rotation-orbit interval geometry behind the codings, including the
  level-n families and the coarser families that classify factors up to
  k-abelian equivalence (`geometry`);
* the words themselves: prefixes, complete factor sets, occurrences, and
  a ternary morphic companion word (`words`);
* k-abelian equivalence, signatures and factor classification
  (`kabelian`);
* maximal k-abelian power exponents, critical exponents, spectra
  sampling, and a stagewise slope construction hitting rational targets
  (`spectra`);
* a deterministic command-line interface (`cli`).
"""

from . import cf, geometry, kabelian, quadreal, spectra, words
from .cf import *  # noqa: F403 - each submodule's __all__ is its public surface
from .geometry import *  # noqa: F403
from .kabelian import *  # noqa: F403
from .quadreal import *  # noqa: F403
from .spectra import *  # noqa: F403
from .words import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += cf.__all__
__all__ += geometry.__all__
__all__ += kabelian.__all__
__all__ += quadreal.__all__
__all__ += spectra.__all__
__all__ += words.__all__
