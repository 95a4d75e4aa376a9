"""Exact combinatorics, constructions, and a brute-force search oracle for
multi-peg Tower of Hanoi move bounds.

The package computes Frame-Stewart transfer counts in closed form (with two
independent routes kept as cross-checks), evaluates Bousch's potential
function exactly, assembles every closed-form lower and upper bound it knows
into reports, emits explicit optimal move sequences, and validates all of it
at desk scale against breadth-first search over explicit state spaces.

The search names (``distance``, ``exact_H``, ``exact_gamma``,
``check_bousch_inequality``, ``PreconditionError``) are resolved from
``state_space`` on first use, so importing the package does not import
numpy; only a search does.
"""

from .bounds import (
    BoundReport,
    build_report,
    chen_shen_bound,
    dp_lower_bound,
    dp_lower_bounds,
    gamma_formula,
    main2_bound,
)
from .constructions import main1_essential_path, midpoint_path, two1_tight_pair
from .core import (
    CapExceededError,
    Configuration,
    IllegalMoveError,
    Move,
    MovePath,
    apply_move,
    is_essential,
    legal_moves,
)
from .dyadic import DyadicRational
from .frame_stewart import (
    best_split,
    frame_stewart_path,
    phi_closed,
    phi_recursive,
    phi_spectrum,
)
from .numerics import Decomposition, binomial, decompose, delta, nabla
from .potential import (
    NotApplicableError,
    check_removal_bound,
    check_union_bound,
    disk_set,
    psi,
    psi_L,
)

__version__ = "0.1.0"

_SEARCH_NAMES = frozenset(
    {"PreconditionError", "check_bousch_inequality", "distance", "exact_H", "exact_gamma"}
)


def __getattr__(name: str):
    # PEP 562: called only for names the module does not bind itself
    if name in _SEARCH_NAMES:
        from . import state_space

        return getattr(state_space, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundReport",
    "CapExceededError",
    "Configuration",
    "Decomposition",
    "DyadicRational",
    "IllegalMoveError",
    "Move",
    "MovePath",
    "NotApplicableError",
    "PreconditionError",
    "apply_move",
    "best_split",
    "binomial",
    "build_report",
    "check_bousch_inequality",
    "check_removal_bound",
    "check_union_bound",
    "chen_shen_bound",
    "decompose",
    "delta",
    "disk_set",
    "distance",
    "dp_lower_bound",
    "dp_lower_bounds",
    "exact_H",
    "exact_gamma",
    "frame_stewart_path",
    "gamma_formula",
    "is_essential",
    "legal_moves",
    "main1_essential_path",
    "main2_bound",
    "midpoint_path",
    "nabla",
    "phi_closed",
    "phi_recursive",
    "phi_spectrum",
    "psi",
    "psi_L",
    "two1_tight_pair",
]
