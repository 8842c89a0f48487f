"""Exact homological calculus for rational blowdowns of blown-up rational surfaces.

Every class is one format, its integer coefficient row in Z^{1,n}, h
first. The pieces: the strict JSON readers, the row reader and the Lorentzian
pairing on rows (`lattice`), chain configurations C_p and their verification
(`chains`), a closed-form section of a configuration's restriction map and
its kernel (`snf`), blowdown invariants and certificates (`blowdown`),
wall-crossing values (`sw`), bounded configuration search (`search`, whose
one search is `search_hits`), the frozen `Record` base with the one JSON
encoder of its reports (`report`), and the `rbdcalc` CLI (`cli`), which also
states the paper's cases and runs their bundled fixtures.
"""

__version__ = "0.1.0"
