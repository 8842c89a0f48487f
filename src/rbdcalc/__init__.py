"""Exact homological calculus for rational blowdowns of blown-up rational surfaces.

The pieces: the ambient lattice Z^{1,n} with its Lorentzian pairing
(`lattice`), exact integer matrix algebra (`snf`), chain configurations C_p
and their verification (`chains`), blowdown invariants and certificates
(`blowdown`), wall-crossing values (`sw`), bounded configuration search
(`search`), the two bundled families (`families`), the one JSON encoder of
the report dataclasses (`report`), and the `rbdcalc` CLI (`cli`).
"""

__version__ = "0.1.0"

from .lattice import (
    AmbientLattice,
    ClassVector,
    is_characteristic,
    orthogonal_complement_basis,
    pairing,
    square,
)
from .chains import (
    ChainReport,
    CpConfiguration,
    intersection_matrix,
    lens_space_cf,
    standard_configuration,
    verify_cp_configuration,
)
from .blowdown import (
    AmbientManifoldData,
    BlowdownReport,
    blowdown_invariants,
    full_blowdown_report,
    h1_certificate,
    handle_counts_after_blowdown,
    parity_and_homeo_type,
)
from .sw import (
    CharacteristicData,
    PeriodPoint,
    d_invariant,
    lift_admissible,
    restriction_conditions,
    sw_on_blowdown,
    wall_crossing,
)
from .search import (
    SearchTemplate,
    estimate_search_space,
    family_question_template,
    search,
    search_family_questions,
)
from .snf import smith_normal_form

__all__ = [
    "AmbientLattice",
    "AmbientManifoldData",
    "BlowdownReport",
    "ChainReport",
    "CharacteristicData",
    "ClassVector",
    "CpConfiguration",
    "PeriodPoint",
    "SearchTemplate",
    "blowdown_invariants",
    "d_invariant",
    "estimate_search_space",
    "family_question_template",
    "full_blowdown_report",
    "h1_certificate",
    "handle_counts_after_blowdown",
    "intersection_matrix",
    "is_characteristic",
    "lens_space_cf",
    "lift_admissible",
    "orthogonal_complement_basis",
    "pairing",
    "parity_and_homeo_type",
    "restriction_conditions",
    "search",
    "search_family_questions",
    "smith_normal_form",
    "square",
    "standard_configuration",
    "sw_on_blowdown",
    "verify_cp_configuration",
    "wall_crossing",
]
