"""Exact star products for the Z2 reflection action on the plane.

Core objects: exact Gaussian-rational sparse polynomials, the
difference/Dunkl calculus, the two-parameter deformation of the crossed
product with its bilinear layers, and two independent operator oracles
(PBW normal forms and literal word expansion) that cross-validate every
product coefficient.
"""

from .calculus import (Composition, CompositionStats, a_nu, b_nu, c_nu,
                       c_nu_word_count, d_tilde, delta, delta_iter, delta_n,
                       dunkl, enumerate_compositions, stats)
from .cherednik import (NormalForm, action_vanishes, apply, from_symbol,
                        multiply, reduce_word, to_symbol_layers)
from .expansion import (VerifyReport, expansion_product, specialize_parameters,
                        verify_pair, word_census)
from .formatting import format_element
from .jets import JetData, JetDataError, jet_eval, jet_match, jets_of
from .parser import GammaPlacementError, ParseError, parse
from .poly import ExactDivisionError, MultiPoly, divide_exact
from .rational import GaussianRational
from .star import (CrossedElement, NonInvariantError, SphericalElement, c0,
                   c1, commutator, gamma_twist, is_gamma_invariant, k_layers,
                   moyal, spherical, star, weight)

__all__ = [name for name in dir() if not name.startswith("_")]
