"""Invariants and certificates for the rational blowdown of a chain.

The ambient is CP^2 # n CPbar^2, a simply connected rational surface with
b2+ = 1 whose lattice Z^{1,n} is the configuration's own: every stage takes
the configuration alone and reads n and p from it. Cutting out the
configuration and gluing in the rational ball preserves b2+ and removes
p-1 negative classes, so on the level of homology the outcome is
controlled by bookkeeping plus two certificates:

  * H1, decided exactly from the cokernel of the restriction map to the
    configuration: its order is one gcd, gcd(p, content(sum_i i u_i)), for
    every body, and when it vanishes a witness class comes from a basis
    vector or, failing that, the closed-form section of the restriction
    map (rbdcalc.snf);
  * parity: either the signature obstruction (an even closed simply
    connected 4-manifold has signature divisible by 16) or an explicit
    odd-square class orthogonal to the configuration, the first among the
    section's generators of the orthogonal complement.

Both are deterministic, so reports are stable byte for byte. Each report
is a `report.Report`: its JSON is its fields under their own names.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import mul

from .chains import CpConfiguration
from .errors import ConsistencyError, DomainError
from .lattice import row_pairing, strict_int, strict_object
from .report import Report


class BlowdownInvariants(Report):
    b2_plus: int
    b2_minus: int
    euler: int
    signature: int


class H1Certificate(Report):
    """Verdict on the first homology of the blowdown.

    verdict is "trivial" (with a witness), "nontrivial" (H1 = Z/order,
    certified by restriction_divisors = (1, ..., 1, order), the invariant
    factors of the restriction map's cokernel, in closed form: see
    h1_certificate) or "inconclusive" (a given delta meeting neither
    condition). condition 1 means the witness pairs 1 with the first class
    and 0 with the rest; condition 2 means it pairs 0 with the body and
    coprime-to-p with the long class. order and restriction_divisors are
    None, and left out of the JSON, when only a given delta was tested.
    """

    verdict: str
    condition: int | None
    witness: tuple[int, ...] | None
    pairings: tuple[int, ...] | None
    order: int | None
    restriction_divisors: tuple[int, ...] | None

    def to_json(self) -> dict:
        out = super().to_json()
        if self.restriction_divisors is None:
            del out["order"], out["restriction_divisors"]
        return out


class ParityReport(Report):
    """Oddness certificate for the blowdown's intersection form.

    verdict: "odd", "even-possible" (no certificate found; no claim either
    way), or "inconclusive" (h1 not certified, so no route applies).
    """

    verdict: str
    route: str | None            # "signature-mod-16" | "odd-square-orthogonal-vector"
    witness: tuple[int, ...] | None
    witness_square: int | None


def blowdown_invariants(cfg: CpConfiguration) -> BlowdownInvariants:
    """Betti/Euler/signature bookkeeping for the blowdown of cfg: b2+ = 1
    stays and b2- = n drops by the rank p - 1. A verified C_p spans a
    negative-definite sublattice of Z^{1,n}, so p - 1 <= n."""
    b2_minus = cfg.n - (cfg.p - 1)
    return BlowdownInvariants(
        b2_plus=1,
        b2_minus=b2_minus,
        euler=3 + b2_minus,
        signature=1 - b2_minus,
    )


def _condition(pair: Sequence[int], p: int) -> int | None:
    """Which triviality condition (1 or 2) a tuple of pairings meets, if any."""
    if pair[0] == 1 and not any(pair[1:]):
        return 1
    if not any(pair[: p - 2]) and gcd(pair[p - 2], p) == 1:
        return 2
    return None


def _basis_witness(columns: list[tuple[int, ...]], p: int) -> tuple[int, ...] | None:
    """Coefficients of the first +/-e_j (j ascending, -1 first) meeting a
    condition. columns[j] holds the j-th coordinates of the classes, so e_j
    pairs s_j columns[j] with them (s_0 = +1 at h, s_j = -1 on e_j). Both
    conditions need zero pairings with u_2..u_{p-2}, so a column with a
    nonzero entry there is skipped without building its pairings."""
    for j, column in enumerate(columns):
        if any(column[1 : p - 2]):
            continue
        s = 1 if j == 0 else -1
        for sign in (-1, 1):
            if _condition([sign * s * v for v in column], p) is not None:
                return tuple(sign if k == j else 0 for k in range(len(columns)))
    return None


def h1_certificate(cfg: CpConfiguration, delta: Sequence[int] | None = None) -> H1Certificate:
    """Decide the first homology of the blowdown, with a re-checkable certificate.

    With an explicit delta, only that class is tested: "trivial" if it meets a
    condition, else "inconclusive"; delta must be a row of exact ints, as the
    CLI's class_row reads it. Otherwise the answer is exact: the complement of
    C_p has H1 = coker r for the restriction map r(x) = (x.u_1, ..., x.u_{p-1}),
    and gluing in the rational ball (H1 = Z/p) leaves H1 = Z/gcd(|coker r|, p)
    (Fintushel-Stern, JDG 1997).

    The cokernel has a closed form. Let S be the span of the classes in the
    unimodular Z^{1,n} and S_sat its saturation. Every functional on the
    primitive S_sat extends, so coker r = S_sat/S, a subgroup of the
    discriminant group S*/S = Z/p^2: cyclic, of an order m with
    m^2 |disc S_sat| = |disc S| = p^2, so m | p and the divisors are
    (1, ..., 1, m). A glue vector (sum c_i u_i)/m pairs integrally with S,
    so Qc = 0 (mod m) for the chain's Gram matrix Q: the body rows, with
    c_0 = 0, give c = c_1 (1, 2, ..., p-1) (mod m), and the long row then
    reads -c_1 p^2 = 0. So m is the largest divisor of p dividing every
    coordinate of v = sum_i i u_i, that is gcd(p, content(v)), and H1 has
    that order.

    Both answers come from one pass over the class columns, the tuples of
    the classes' j-th coordinates. Column j adds its share of v, the sum of
    i times its i-th entry, to a gcd that starts at p; the fold stops once
    the gcd is 1, and at a larger order every column is folded, so the
    order is exactly gcd(p, content(v)). At order 1 the witness is the first
    +/-e_j meeting a condition (_basis_witness: e_j pairs s_j column_j with
    the classes, s_0 = +1 and s_j = -1 for j >= 1, and a column nonzero on
    u_2..u_{p-2} is skipped), else s(0, ..., 0, 1) for the section s of r
    in rbdcalc.snf, a closed form built on the C_p Gram matrix's
    p^2 Q^-1. The witness gets the same cfg.pairings test as a given
    delta, and failing it raises ConsistencyError. A larger order is
    "nontrivial": the formula needs H1 of the ambient to vanish, and the
    rational surface is simply connected.
    """
    p = cfg.p
    order = divisors = None
    if delta is None:
        columns = list(zip(*cfg.classes))
        order = p
        for column in columns:
            order = gcd(order, sum(map(mul, column, range(1, p))))
            if order == 1:
                break
        divisors = (1,) * (p - 2) + (order,)
        if order > 1:
            return H1Certificate(
                verdict="nontrivial",
                condition=None,
                witness=None,
                pairings=None,
                order=order,
                restriction_divisors=divisors,
            )
        delta = _basis_witness(columns, p)
        if delta is None:
            from .snf import Section

            delta = Section(cfg)((0,) * (p - 2) + (1,))
    pair = cfg.pairings(delta)
    cond = _condition(pair, p)
    if cond is None and order == 1:
        raise ConsistencyError(
            f"H1 of the blowdown is trivial (restriction divisors {divisors}) "
            f"but the witness {list(delta)} fails the re-check"
        )
    return H1Certificate(
        verdict="inconclusive" if cond is None else "trivial",
        condition=cond,
        witness=tuple(delta),
        pairings=pair,
        order=order,
        restriction_divisors=divisors,
    )


def parity_and_homeo_type(
    cfg: CpConfiguration, h1: H1Certificate
) -> tuple[ParityReport, str | None]:
    """Decide oddness of the blowdown's form and, if possible, its homeo type.

    Odd is certified either by signature (mod 16) or by an odd-square class
    orthogonal to the configuration. For the second route it is enough to
    scan generators of the orthogonal complement: in a diagonal ambient
    basis, (sum x_i w_i)^2 = sum x_i w_i^2 (mod 2), so the complement is
    even exactly when every generator's square is even, and the scan is
    complete. The n + 2 generators come from the section of the
    restriction map (rbdcalc.snf), one at a time, and the scan stops at
    the first odd square.

    The type is pinned down only from: h1 certified trivial (the ambient is
    simply connected), b2+ = 1, odd form. Then the blowdown is homeomorphic
    to CP^2 # k CPbar^2 with k the remaining negative rank.
    """
    inv = blowdown_invariants(cfg)
    if h1.verdict != "trivial":
        return ParityReport("inconclusive", None, None, None), None
    if inv.signature % 16 != 0:
        report = ParityReport("odd", "signature-mod-16", None, None)
    else:
        from .snf import Section

        w = next((w for w in Section(cfg).complement() if row_pairing(w, w) % 2), None)
        if w is None:
            return ParityReport("even-possible", None, None, None), None
        report = ParityReport("odd", "odd-square-orthogonal-vector", w, row_pairing(w, w))
    return report, homeo_type(inv.b2_minus)


def homeo_type(b2_minus: int) -> str:
    """The name of CP^2 # k CPbar^2 for k = b2_minus; k = 0 is CP^2."""
    return f"CP^2 # {b2_minus} CPbar^2" if b2_minus else "CP^2"


def handle_counts_after_blowdown(h2: int, h3: int) -> tuple[int, int, int, int, int]:
    """Handle tuple of the blown-down manifold from the complement's counts.

    A decomposition of the complement with h2 two-handles and h3
    three-handles closes up to (1, 0, h2 + 1, h3, 1) after the ball is glued
    in. h2 = 0 is allowed (single-two-handle outcomes).
    """
    if h2 < 0 or h3 < 0:
        raise DomainError(f"handle counts must be nonnegative, got h2={h2}, h3={h3}")
    return (1, 0, h2 + 1, h3, 1)


def handle_counts(data: dict) -> tuple[int, int, int, int, int]:
    """The blowdown's handle tuple from a recorded handles object: exactly
    {counts: [h0, ..., h4]}, a full tuple never read as (h2, h3), or
    exactly {h2, h3}, the complement's counts, closed up by
    handle_counts_after_blowdown. Any other key raises InputTypeError."""
    if isinstance(data, dict) and "counts" in data:
        counts = strict_object(data, {"counts": list})["counts"]
        if len(counts) != 5:
            raise DomainError(f"recorded handle counts must be a full 5-tuple, got {len(counts)}")
        counts = tuple(strict_int(v, "handle count") for v in counts)
        if min(counts) < 0:
            raise DomainError(f"handle counts must be nonnegative, got {list(counts)}")
        return counts
    strict_object(data, {"h2": int, "h3": int})
    return handle_counts_after_blowdown(data["h2"], data["h3"])


class BlowdownReport(Report):
    """Full outcome bundle for one blowdown, as emitted by the CLI."""

    invariants: BlowdownInvariants
    h1: H1Certificate
    parity: ParityReport
    homeo_type: str | None
    # kept in the JSON as null: recorded counts are read by handle_counts
    handle_counts: tuple[int, int, int, int, int] | None


def full_blowdown_report(
    cfg: CpConfiguration, delta: Sequence[int] | None = None
) -> BlowdownReport:
    """Run the whole certificate pipeline for one configuration."""
    inv = blowdown_invariants(cfg)
    h1 = h1_certificate(cfg, delta=delta)
    parity, homeo = parity_and_homeo_type(cfg, h1)
    return BlowdownReport(
        invariants=inv, h1=h1, parity=parity, homeo_type=homeo, handle_counts=None
    )
