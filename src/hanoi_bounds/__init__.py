"""Exact combinatorics, constructions, and a brute-force search oracle for
multi-peg Tower of Hanoi move bounds.

The package computes Frame-Stewart transfer counts in closed form (with two
independent routes kept as cross-checks), evaluates Bousch's potential
function exactly, assembles every closed-form lower and upper bound it knows
into reports, emits explicit optimal move sequences, and validates all of it
at desk scale against breadth-first search over explicit state spaces.
"""

from .bounds import (
    BoundReport,
    build_report,
    chen_shen_bound,
    dp_lower_bound,
    dp_lower_bounds,
    gamma3_formula,
    gamma4_formula,
    gamma_conjecture,
    gamma_formula,
    gamma_upper_general,
    main2_bound,
)
from .constructions import main1_essential_path, midpoint_path, two1_tight_pair
from .core import (
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
    phi4_closed,
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
from .state_space import (
    CapExceededError,
    PreconditionError,
    check_bousch_inequality,
    distance,
    exact_H,
    exact_gamma,
)

__version__ = "0.1.0"

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
    "gamma3_formula",
    "gamma4_formula",
    "gamma_conjecture",
    "gamma_formula",
    "gamma_upper_general",
    "is_essential",
    "legal_moves",
    "main1_essential_path",
    "main2_bound",
    "midpoint_path",
    "nabla",
    "phi4_closed",
    "phi_closed",
    "phi_recursive",
    "phi_spectrum",
    "psi",
    "psi_L",
    "two1_tight_pair",
]
