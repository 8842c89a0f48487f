"""Invariants and certificates for the rational blowdown of a chain.

Cutting out the configuration and gluing in the rational ball preserves b2+
and removes p-1 negative classes, so on the level of homology the outcome is
controlled by bookkeeping plus two certificates:

  * H1, decided exactly from the cokernel of the restriction map to the
    configuration, with a witness class when it vanishes: one gcd when the
    body is a signed path of e-differences (every search hit and bundled
    family), else one Smith normal form;
  * parity: either the signature obstruction (an even closed simply
    connected 4-manifold has signature divisible by 16) or an explicit
    odd-square class orthogonal to the configuration.

Both are deterministic, so reports are stable byte for byte. Each report
is a `report.Report`: its JSON is its fields under their own names.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd, prod

from .chains import CpConfiguration
from .errors import ConsistencyError, DomainError, LatticeMismatchError
from .lattice import (
    AmbientLattice,
    ClassVector,
    dual_coefficients,
    orthogonal_complement_basis,
    strict_int,
)
from .report import Record, Report
from .snf import smith_normal_form


class AmbientManifoldData(Record):
    """The blown-up rational surface whose intersection lattice is Z^{1,n}."""

    lattice: AmbientLattice
    simply_connected: bool = True

    @property
    def b2_plus(self) -> int:
        return 1

    @property
    def b2_minus(self) -> int:
        return self.lattice.n

    @property
    def euler(self) -> int:
        return self.lattice.n + 3

    @property
    def signature(self) -> int:
        return 1 - self.lattice.n


class BlowdownInvariants(Report):
    b2_plus: int
    b2_minus: int
    euler: int
    signature: int


class H1Certificate(Report):
    """Verdict on the first homology of the blowdown.

    verdict is "trivial" (with a witness), "nontrivial" (H1 = Z/order,
    certified by restriction_divisors, the Smith normal form diagonal of the
    restriction map) or "inconclusive" (a delta meeting neither condition,
    or order > 1 in an ambient not known to be simply connected; order is
    then None). condition 1 means the witness pairs 1 with the first class
    and 0 with the rest; condition 2 means it pairs 0 with the body and
    coprime-to-p with the long class. order and restriction_divisors are
    None, and left out of the JSON, when only a given delta was tested.
    """

    verdict: str
    condition: int | None
    witness: ClassVector | None
    pairings: tuple[int, ...] | None
    order: int | None = None
    restriction_divisors: tuple[int, ...] | None = None

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
    witness: ClassVector | None
    witness_square: int | None


def blowdown_invariants(x: AmbientManifoldData, cfg: CpConfiguration) -> BlowdownInvariants:
    """Betti/Euler/signature bookkeeping for the blowdown of cfg inside x."""
    if cfg.lattice != x.lattice:
        raise LatticeMismatchError(
            f"configuration lives in n = {cfg.lattice.n}, ambient has n = {x.lattice.n}"
        )
    b2_minus = x.b2_minus - (cfg.p - 1)
    if b2_minus < 0:
        raise DomainError("configuration rank exceeds the ambient negative part")
    return BlowdownInvariants(
        b2_plus=x.b2_plus,
        b2_minus=b2_minus,
        euler=2 + x.b2_plus + b2_minus,
        signature=x.b2_plus - b2_minus,
    )


def _condition(pair: Sequence[int], p: int) -> int | None:
    """Which triviality condition (1 or 2) a tuple of pairings meets, if any."""
    if pair[0] == 1 and not any(pair[1:]):
        return 1
    if not any(pair[: p - 2]) and gcd(pair[p - 2], p) == 1:
        return 2
    return None


def _basis_witness(restriction: list[tuple[int, ...]], p: int) -> list[int] | None:
    """Coefficients of the first +/-e_j (j ascending, -1 first) meeting a
    condition; column j of the restriction matrix holds e_j's pairings."""
    for j, column in enumerate(zip(*restriction)):
        for sign in (-1, 1):
            if _condition([sign * v for v in column], p) is not None:
                return [sign if k == j else 0 for k in range(len(restriction[0]))]
    return None


def _path_divisors(restriction: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The Smith diagonal (1, ..., 1, g) of r when the body is a signed path, else None.

    A signed path: every body row has h-coefficient 0 and two nonzero
    e-coefficients, each +/-1, row i on the indices {x_i, x_{i+1}} with
    x_1, ..., x_{p-1} distinct; p = 2 has an empty body. The body map is then
    onto Z^{p-2} (triangular with unit diagonal on x_2, ..., x_{p-1}), and its
    kernel is spanned by h, each e_k off the path and sum_j sigma_j e_{x_j},
    with sigma_1 = 1 and sigma_{j+1} = -u_j[x_j] u_j[x_{j+1}] sigma_j. So
    coker r = Z/g, g the gcd of the long class's functional on that kernel.
    """
    *body, long_row = restriction
    indices = range(len(long_row))
    supports = []
    for row in body:
        support = list(compress(indices, row))
        if len(support) != 2 or support[0] == 0:
            return None
        a, b = support
        if abs(row[a]) != 1 or abs(row[b]) != 1:
            return None
        supports.append(support)
    rest = list(long_row)
    total = 0
    if body:
        # x_1 is the index of row 1 that row 2 does not share
        x, y = supports[0]
        if len(body) > 1 and x in supports[1]:
            x = y
        path = {x}
        total, sign = long_row[x], 1
        for row, (a, b) in zip(body, supports):
            if x not in (a, b):
                return None
            y = a + b - x
            if y in path:
                return None
            path.add(y)
            sign = -row[x] * row[y] * sign
            total += sign * long_row[y]
            x = y
        for x in path:
            rest[x] = 0
    return (1,) * len(body) + (gcd(total, *rest),)


def h1_certificate(
    x: AmbientManifoldData,
    cfg: CpConfiguration,
    delta: ClassVector | None = None,
) -> H1Certificate:
    """Decide the first homology of the blowdown, with a re-checkable certificate.

    With an explicit delta, only that class is tested: "trivial" if it meets
    a condition, else "inconclusive". Otherwise the answer is exact: the
    complement of C_p has H1 = coker r for the restriction map
    r(x) = (x.u_1, ..., x.u_{p-1}), and gluing in the rational ball (H1 = Z/p)
    leaves H1 = Z/gcd(|coker r|, p) (Fintushel-Stern, JDG 1997). When the
    body is a signed path (see _path_divisors) the cokernel is Z/g for one
    gcd g and the divisors are (1, ..., 1, g); otherwise they are the
    diagonal of one Smith normal form of r. At order 1 the witness is the
    first +/-e_j meeting a condition, else the solution of
    r(x) = (0, ..., 0, 1) from the Smith normal form; it gets the same
    cfg.pairings test as a given delta, and failing it raises
    ConsistencyError. A larger order is "nontrivial" in a simply connected
    ambient (the formula needs H1 of the ambient to vanish) and
    "inconclusive" otherwise.
    """
    if cfg.lattice != x.lattice:
        raise LatticeMismatchError("configuration and ambient lattices differ")
    p = cfg.p
    order = divisors = coeffs = None
    if delta is None:
        restriction = [dual_coefficients(u) for u in cfg.classes]
        divisors = _path_divisors(restriction)
        snf = None
        if divisors is None:
            snf = smith_normal_form(restriction)
            divisors = snf.diagonal
        order = gcd(prod(divisors), p)
        if order > 1:
            return H1Certificate(
                verdict="nontrivial" if x.simply_connected else "inconclusive",
                condition=None,
                witness=None,
                pairings=None,
                order=order if x.simply_connected else None,
                restriction_divisors=divisors,
            )
        coeffs = _basis_witness(restriction, p)
        if coeffs is None:
            coeffs = (snf or smith_normal_form(restriction)).solve([0] * (p - 2) + [1])
        delta = None if coeffs is None else x.lattice.vector(coeffs)
    pair = None if delta is None else cfg.pairings(delta)
    cond = None if pair is None else _condition(pair, p)
    if cond is None and order == 1:
        raise ConsistencyError(
            f"H1 of the blowdown is trivial (restriction divisors {divisors}) "
            f"but the witness {coeffs} fails the re-check"
        )
    return H1Certificate(
        verdict="inconclusive" if cond is None else "trivial",
        condition=cond,
        witness=delta,
        pairings=pair,
        order=order,
        restriction_divisors=divisors,
    )


def parity_and_homeo_type(
    x: AmbientManifoldData,
    cfg: CpConfiguration,
    h1: H1Certificate,
) -> tuple[ParityReport, str | None]:
    """Decide oddness of the blowdown's form and, if possible, its homeo type.

    Odd is certified either by signature (mod 16) or by an odd-square class
    orthogonal to the configuration. For the second route it is enough to
    scan a basis of the orthogonal complement: in a diagonal ambient basis,
    (sum x_i w_i)^2 = sum x_i w_i^2 (mod 2), so the complement is even
    exactly when every basis square is even, and the scan is complete.

    The type is pinned down only from: ambient simply connected, h1 certified
    trivial, b2+ = 1, odd form. Then the blowdown is homeomorphic to
    CP^2 # k CPbar^2 with k the remaining negative rank.
    """
    inv = blowdown_invariants(x, cfg)
    if not x.simply_connected or h1.verdict != "trivial":
        return ParityReport("inconclusive", None, None, None), None
    if inv.signature % 16 != 0:
        report = ParityReport("odd", "signature-mod-16", None, None)
    else:
        report = None
        for w in orthogonal_complement_basis(list(cfg.classes)):
            sq = w.square()
            if sq % 2 != 0:
                report = ParityReport("odd", "odd-square-orthogonal-vector", w, sq)
                break
        if report is None:
            return ParityReport("even-possible", None, None, None), None
    if inv.b2_minus == 0:
        return report, "CP^2"
    return report, f"CP^2 # {inv.b2_minus} CPbar^2"


def handle_counts_after_blowdown(h2: int, h3: int) -> tuple[int, int, int, int, int]:
    """Handle tuple of the blown-down manifold from the complement's counts.

    A decomposition of the complement with h2 two-handles and h3
    three-handles closes up to (1, 0, h2 + 1, h3, 1) after the ball is glued
    in. h2 = 0 is allowed (single-two-handle outcomes).
    """
    if h2 < 0 or h3 < 0:
        raise DomainError(f"handle counts must be nonnegative, got h2={h2}, h3={h3}")
    return (1, 0, h2 + 1, h3, 1)


def handle_counts_from_data(data: Sequence[int]) -> tuple[int, int, int, int, int]:
    """The blowdown's handle tuple from recorded data: the complement's
    (h2, h3), closed up by handle_counts_after_blowdown, or a full 5-tuple."""
    if len(data) == 2:
        return handle_counts_after_blowdown(strict_int(data[0], "h2"), strict_int(data[1], "h3"))
    if len(data) == 5:
        return full_handle_counts(data)
    raise DomainError("handle data must be (h2, h3) or a full 5-tuple")


def full_handle_counts(counts: Sequence[int]) -> tuple[int, int, int, int, int]:
    """A recorded full handle tuple (h0, ..., h4), never read as (h2, h3)."""
    if len(counts) != 5:
        raise DomainError(f"recorded handle counts must be a full 5-tuple, got {len(counts)}")
    return tuple(strict_int(v, "handle count") for v in counts)


class BlowdownReport(Report):
    """Full outcome bundle for one blowdown, as emitted by the CLI."""

    invariants: BlowdownInvariants
    h1: H1Certificate
    parity: ParityReport
    homeo_type: str | None
    handle_counts: tuple[int, int, int, int, int] | None


def full_blowdown_report(
    x: AmbientManifoldData,
    cfg: CpConfiguration,
    delta: ClassVector | None = None,
    handle_data: tuple[int, int] | Sequence[int] | None = None,
) -> BlowdownReport:
    """Run the whole certificate pipeline for one configuration."""
    inv = blowdown_invariants(x, cfg)
    h1 = h1_certificate(x, cfg, delta=delta)
    parity, homeo = parity_and_homeo_type(x, cfg, h1)
    return BlowdownReport(
        invariants=inv,
        h1=h1,
        parity=parity,
        homeo_type=homeo,
        handle_counts=None if handle_data is None else handle_counts_from_data(handle_data),
    )
