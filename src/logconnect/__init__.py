"""Flat logarithmic connections, Riccati projectivization, numerical
monodromy and the projective lifting pipeline.

The names below are resolved on first access (PEP 562), so importing the
package loads no submodule and no library.  No submodule imports sympy or
scipy at module level, no verb imports sympy on any input, and only the
numeric submodules (``algebra``, ``lifting``, ``monodromy``) import numpy:
exact arithmetic, the gcd in several variables included, is the package's own
(``ratfunc``), and the exact modules import numpy on call where they compute
with floats.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "algebra": "commuting sylvester_solve nonresonant ProjectiveClass proj_equal property_Pm",
    "connections": "FuchsianSystem GaugeSeries LocalModel LogConnection flatness_check "
                   "poincare_defect poincare_normalize pullback_power residue",
    "lifting": "LiftReport ProjectivePresentation lift_commuting lifting_exponent "
               "local_realize realize_fuchsian verify_lift_after_power",
    "monodromy": "ArcSegment LineSegment LoopPath MonodromyRep circle_loop monodromy_rep "
                 "projective_monodromy relation_check standard_loops transport",
    "projective": "RiccatiSystem projectivize reconstruct trace_free_lift",
    "ratfunc": "RationalFunction",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
