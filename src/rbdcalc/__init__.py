"""Exact homological calculus for rational blowdowns of blown-up rational surfaces.

The pieces: the ambient lattice Z^{1,n} with its Lorentzian pairing
(`lattice`), exact integer matrix algebra (`snf`), chain configurations C_p
and their verification (`chains`), blowdown invariants and certificates
(`blowdown`), wall-crossing values (`sw`), bounded configuration search
(`search`, whose one search is `search_hits`), the frozen `Record` base
with the one JSON encoder of its reports (`report`), and the `rbdcalc` CLI
(`cli`), which also states the paper's cases and runs their bundled fixtures.

`import rbdcalc` loads none of them: each exported name imports its
submodule on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("lattice", ("AmbientLattice", "ClassVector", "is_characteristic",
                     "orthogonal_complement_basis", "pairing")),
        ("chains", ("ChainReport", "CpConfiguration", "lens_space_cf",
                    "standard_configuration", "verify_cp_configuration")),
        ("blowdown", ("BlowdownReport", "blowdown_invariants", "full_blowdown_report",
                      "h1_certificate", "handle_counts_after_blowdown",
                      "parity_and_homeo_type")),
        ("sw", ("CharacteristicData", "PeriodPoint", "d_invariant", "lift_admissible",
                "restriction_conditions", "sw_on_blowdown", "wall_crossing")),
        ("search", ("SearchTemplate", "estimate_search_space", "family_question_template",
                    "search_family_questions")),
        ("snf", ("smith_normal_form",)),
    )
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

