"""Wall-crossing arithmetic for small-perturbation invariants at b2+ = 1.

The engine's normalization axiom: on the blown-up rational surface the value
in the chamber of the hyperplane period point PD(h) is 0 for every
characteristic class. All other chamber values follow from the crossing rule

    value(H') = value(H) + { 0                  same sign of K.H and K.H',
                             (-1)^(d/2)         K.H > 0 > K.H',
                             (-1)^(1 + d/2)     K.H < 0 < K.H',

with d = (K^2 - 2e - 3sigma)/4 the expected dimension. The increment depends
only on the endpoints' signs, so values are path-independent.

The blowdown pipeline evaluates the ambient value in the chamber of a period
point orthogonal to the configuration; a lift whose pairings against the
configuration are (0, ..., 0, +/-p) descends, and the arithmetic of that
descent is a closed form in p (RestrictionReport).
"""
from __future__ import annotations

from .chains import CpConfiguration, cp_divisors
from .errors import LatticeMismatchError, PreconditionError
from .lattice import ClassVector, is_characteristic, pairing
from .report import Record, Report


class CharacteristicData(Record):
    """A characteristic class on the ambient CP^2 # n CPbar^2."""

    k: ClassVector

    def __post_init__(self):
        if not is_characteristic(self.k):
            even = [i for i, c in enumerate(self.k.coeffs) if c % 2 == 0]
            raise PreconditionError(
                f"class is not characteristic: coefficients at positions {even} are even"
            )


class PeriodPoint(Record):
    """A positive-square class in the forward cone, defining a chamber."""

    vector: ClassVector

    def __post_init__(self):
        sq = self.vector.square()
        if sq <= 0:
            raise PreconditionError(f"period point needs square > 0, got H^2 = {sq}")
        if self.vector.coeffs[0] <= 0:
            raise PreconditionError(
                f"period point must lie in the forward cone: H.h = "
                f"{self.vector.coeffs[0]} <= 0"
            )


def d_invariant(k: CharacteristicData) -> int:
    """Expected dimension d = (K^2 - 2e - 3sigma)/4 on CP^2 # n CPbar^2,
    n read from k's lattice: e = n + 3 and sigma = 1 - n give 2e + 3sigma = 9 - n.
    Every coefficient of K is odd and odd squares are 1 mod 8, so
    K^2 = 1 - n = sigma (mod 8) (van der Blij) and d is an even integer."""
    return (k.k.square() - (9 - k.k.lattice.n)) // 4


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _crossing(sign_from: int, sign_to: int, d: int) -> tuple[int, str]:
    """(increment, branch) of the crossing rule from the sign of K.H to that
    of K.H'; a zero sign puts that end on a wall, where no value exists."""
    if sign_from == 0:
        raise PreconditionError("start period point lies on the wall: K.H = 0")
    if sign_to == 0:
        raise PreconditionError("end period point lies on the wall: K.H' = 0")
    if sign_from == sign_to:
        return 0, "no-crossing"
    if sign_from > 0 > sign_to:
        return (-1) ** (d // 2), "positive-to-negative"
    return (-1) ** (1 + d // 2), "negative-to-positive"


def wall_crossing(
    k: CharacteristicData,
    start: PeriodPoint,
    end: PeriodPoint,
    base_value: int,
) -> int:
    """Value in the end chamber from the value in the start chamber."""
    if start.vector.lattice != k.k.lattice or end.vector.lattice != k.k.lattice:
        raise LatticeMismatchError("period points and class must share one lattice")
    d = d_invariant(k)
    if d < 0:
        raise PreconditionError(f"crossing formula needs d >= 0, got d = {d}")
    inc, _ = _crossing(_sign(pairing(k.k, start.vector)), _sign(pairing(k.k, end.vector)), d)
    return base_value + inc


class AdmissibilityReport(Report):
    """Pairings of a lift against the configuration, and whether they descend."""

    ok: bool
    pairings: tuple[int, ...]
    p: int


def lift_admissible(k: CharacteristicData, cfg: CpConfiguration) -> AdmissibilityReport:
    """A lift descends iff it pairs 0 with the body and +/-p with the long class."""
    pair = cfg.pairings(k.k)
    ok = all(v == 0 for v in pair[: cfg.p - 2]) and abs(pair[cfg.p - 2]) == cfg.p
    return AdmissibilityReport(ok=ok, pairings=pair, p=cfg.p)


class RestrictionReport(Report):
    """Arithmetic certificate for restricting an admissible lift to the
    configuration, in closed form in p.

    The lift pairs k = (0, ..., 0, sp), s = +/-1, with the chain. With Q the
    C_p Gram matrix, the last column of p^2 Q^{-1} is -(1, 2, ..., p - 1)
    (w(p - 1) = 1 in cp_scaled_inverse), so x = p^2 Q^{-1} k is
    -sp (1, 2, ..., p - 1) and the rational square k^T Q^{-1} k = k.x / p^2
    is 1 - p for every admissible lift. square is it as [numerator,
    denominator]; gram_divisors is the Smith diagonal (1, ..., 1, p^2) of Q.
    """

    pairings: tuple[int, ...]
    square: tuple[int, int]
    gram_divisors: tuple[int, ...]


def restriction_conditions(adm: AdmissibilityReport) -> RestrictionReport:
    """The restriction certificate of a lift from its admissibility report;
    a lift that does not descend raises PreconditionError."""
    if not adm.ok:
        raise PreconditionError(
            f"lift does not descend: pairings {list(adm.pairings)} are not "
            f"(0, ..., 0, +/-{adm.p})"
        )
    return RestrictionReport(
        pairings=adm.pairings,
        square=(1 - adm.p, 1),
        gram_divisors=cp_divisors(adm.p),
    )


class SwOutcome(Report):
    """Value of the blowdown invariant plus the certificate chain behind it."""

    value: int
    d: int
    base_value: int
    base_sign: int
    target_sign: int
    branch: str
    admissibility: AdmissibilityReport
    restriction: RestrictionReport
    exotic_certificate: bool
    note: str | None


def sw_on_blowdown(cfg: CpConfiguration, k: CharacteristicData, h: PeriodPoint) -> SwOutcome:
    """Blowdown invariant of the descended class, evaluated in the H chamber.

    Preconditions: the lift and H live in the configuration's lattice
    (cfg.pairings raises LatticeMismatchError otherwise), H is orthogonal
    to the configuration (so its chamber survives the surgery), the lift
    is admissible, and the blowdown's negative rank is at most 9 (which
    makes the downstairs invariant a single well-defined number rather
    than a chamber function). A nonzero value certifies nonvanishing
    downstairs; with d = 0 that separates the blowdown from manifolds with
    vanishing invariants, while for d > 0 the note records that
    nonvanishing alone is not such a certificate.
    """
    b2_minus_after = cfg.lattice.n - (cfg.p - 1)
    if b2_minus_after > 9:
        raise PreconditionError(
            f"b2- after blowdown is {b2_minus_after} > 9: the downstairs "
            f"invariant is chamber-dependent and no single value exists"
        )
    for i, pv in enumerate(cfg.pairings(h.vector), 1):
        if pv != 0:
            raise PreconditionError(
                f"period point is not orthogonal to the configuration: H.u_{i} = {pv}"
            )
    adm = lift_admissible(k, cfg)
    restr = restriction_conditions(adm)  # refuses a lift that does not descend
    d = d_invariant(k)
    s_base = _sign(pairing(k.k, cfg.lattice.h()))
    s_target = _sign(pairing(k.k, h.vector))
    if d < 0:
        value, branch = 0, "negative-dimension"
        note = "expected dimension is negative; the invariant vanishes in every chamber"
    else:
        value, branch = _crossing(s_base, s_target, d)
        note = None
        if d > 0 and value != 0:
            note = "d > 0: nonvanishing does not by itself certify an exotic pair"
    return SwOutcome(
        value=value,
        d=d,
        base_value=0,
        base_sign=s_base,
        target_sign=s_target,
        branch=branch,
        admissibility=adm,
        restriction=restr,
        exotic_certificate=(d == 0 and value != 0),
        note=note,
    )
