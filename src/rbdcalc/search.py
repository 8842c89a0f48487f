"""Bounded enumeration of chain configurations inside a coefficient box.

A template fixes the ambient size n, the chain index p, the body shape, and
per-coordinate absolute bounds for the long class (h first). Bodies are
difference classes e_x - e_y on distinct indices; orthogonality against the
body forces most tail coordinates into a single run value t, the top index
into t + 1, and the h coefficient is solved from the square equation rather
than enumerated. Only genuinely free coordinates are walked, with a pruning
step that discards a partial assignment only when no completion can reach a
feasible h^2, so the enumeration returns exactly the box solutions. Each
solution becomes a CpConfiguration through the normal constructor, so the
one Gram verifier checks it from raw coefficients; its body block is checked
once per placement and cached, leaving O(n + p) work per hit.

Everything is deterministic: placements, coordinate order, and value order
are fixed, and results are sorted by their class coefficient tuples (body
first, then the long class), so hits that share a body come out next to
each other.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from math import isqrt, perm, prod

from .chains import CpConfiguration
from .errors import ConsistencyError, DomainError, InputTypeError
from .errors import InvalidConfigurationError, SearchCapExceeded, TemplateError
from .lattice import AmbientLattice, ClassVector, strict_int
from .report import Report

DEFAULT_CAP = 10_000_000

BODY_SHAPES = ("consecutive-differences", "free-pairs")


@dataclass(frozen=True)
class SearchTemplate(Report):
    """Box description for a bounded configuration search."""

    n: int
    p: int
    tail_bounds: tuple[int, ...]
    body_shape: str = "consecutive-differences"
    symmetry_reduction: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"need p >= 2, got p = {self.p}")
        if self.n < 1:
            raise DomainError(f"need n >= 1, got n = {self.n}")
        if self.body_shape not in BODY_SHAPES:
            raise DomainError(f"unknown body shape {self.body_shape!r}")
        if len(self.tail_bounds) != self.n + 1:
            raise DomainError(
                f"need {self.n + 1} bounds (h first), got {len(self.tail_bounds)}"
            )
        if any(b < 0 for b in self.tail_bounds):
            raise DomainError("bounds must be nonnegative")
        if self.p - 1 > self.n:
            raise TemplateError(
                f"chain does not fit: rank p - 1 = {self.p - 1} exceeds the "
                f"negative rank n = {self.n}"
            )

    @classmethod
    def uniform(
        cls,
        n: int,
        p: int,
        bound: int,
        body_shape: str = "consecutive-differences",
        symmetry_reduction: bool = True,
    ) -> "SearchTemplate":
        return cls(
            n=n,
            p=p,
            tail_bounds=(bound,) * (n + 1),
            body_shape=body_shape,
            symmetry_reduction=symmetry_reduction,
        )

    @classmethod
    def from_json(cls, data: dict) -> "SearchTemplate":
        bounds = data["tail_bounds"]
        n = strict_int(data["n"], "n")
        if isinstance(bounds, (list, tuple)):
            bounds = tuple(strict_int(b, "tail bound") for b in bounds)
        else:
            bounds = (strict_int(bounds, "tail_bounds"),) * (n + 1)
        body_shape = data.get("body_shape", "consecutive-differences")
        if not isinstance(body_shape, str):
            raise InputTypeError(f"body_shape must be a string, got {body_shape!r}")
        symmetry = data.get("symmetry_reduction", True)
        if not isinstance(symmetry, bool):
            raise InputTypeError(f"symmetry_reduction must be true or false, got {symmetry!r}")
        return cls(
            n=n,
            p=strict_int(data["p"], "p"),
            tail_bounds=bounds,
            body_shape=body_shape,
            symmetry_reduction=symmetry,
        )


def _placements(template: SearchTemplate) -> list[tuple[int, ...]]:
    """Body index sequences x_1..x_{p-1}; body_i = e_{x_i} - e_{x_{i+1}}.

    With symmetry reduction, one canonical ascending run anchored at the top
    index. Without it: all ascending runs for the consecutive shape, all
    injective sequences for free-pairs (use the estimate before walking
    these). p = 2 has an empty body and a single empty placement.
    """
    n, p = template.n, template.p
    if p == 2:
        return [()]
    anchored = tuple(range(n - p + 2, n + 1))
    if template.symmetry_reduction:
        return [anchored]
    if template.body_shape == "consecutive-differences":
        return [tuple(range(s, s + p - 1)) for s in range(1, n - p + 3)]
    return list(permutations(range(1, n + 1), p - 1))


def _placement_geometry(template: SearchTemplate, placement: tuple[int, ...]):
    """(free_indices, run_indices, end_index, t_range) for one placement.

    A coordinate with bound 0 can only be 0, so it is not free: the walk
    recurses once per free coordinate and never visits it.
    """
    n, p = template.n, template.p
    bounds = template.tail_bounds
    taken = set(placement)
    free = tuple(i for i in range(1, n + 1) if bounds[i] and i not in taken)
    if p == 2:
        return free, (), None, (None,)
    run = placement[: p - 2]
    end = placement[p - 2]
    run_cap = min(bounds[i] for i in run)
    lo = max(-run_cap, -bounds[end] - 1)
    hi = min(run_cap, bounds[end] - 1)
    return free, run, end, tuple(range(lo, hi + 1))


def _t_part(p: int, t: int | None) -> int:
    if t is None:
        return 0
    return (p - 2) * t * t + (t + 1) * (t + 1)


def _solve_h(template: SearchTemplate, s: int, tpart: int) -> list[int]:
    """Values of the h coefficient with c0^2 = s + tpart - (p + 2), in the box."""
    rhs = s + tpart - (template.p + 2)
    if rhs < 0:
        return []
    r = isqrt(rhs)
    if r * r != rhs or r > template.tail_bounds[0]:
        return []
    return [r] if r == 0 else [r, -r]


def _enumerate_placement(
    template: SearchTemplate, placement: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (placement, tail coefficients) solutions for one body placement."""
    n, p = template.n, template.p
    bounds = template.tail_bounds
    free, run, end, t_range = _placement_geometry(template, placement)
    if not t_range:
        return []
    tmin = min(_t_part(p, t) for t in t_range)
    budget = bounds[0] ** 2 + (p + 2)   # s + tpart may not exceed this
    out = []
    coeffs = [0] * (n + 1)

    def leaf(s: int) -> None:
        for t in t_range:
            tpart = _t_part(p, t)
            for c0 in _solve_h(template, s, tpart):
                tail = list(coeffs)
                tail[0] = c0
                if t is not None:
                    for i in run:
                        tail[i] = t
                    tail[end] = t + 1
                out.append((placement, tuple(tail)))

    def walk(idx: int, s: int) -> None:
        if s + tmin > budget:
            return
        if idx == len(free):
            leaf(s)
            return
        coord = free[idx]
        b = bounds[coord]
        for c in range(-b, b + 1):
            coeffs[coord] = c
            walk(idx + 1, s + c * c)
        coeffs[coord] = 0

    walk(0, 0)
    return out


def estimate_search_space(template: SearchTemplate) -> int:
    """Assignments the enumerator will examine (h is solved, not counted).

    Exact for reduced and consecutive shapes. For unreduced free-pairs the
    per-placement boxes are not all equal, so the result is the upper bound
    (number of placements) x (largest free box) x (widest t range). The two
    maxima come from different placements: the largest free box leaves out
    the p - 1 smallest bounds, the widest t range uses the p - 1 largest.
    """
    n, p = template.n, template.p
    bounds = template.tail_bounds

    def box(placement: tuple[int, ...]) -> tuple[int, int]:
        """(free box, t range width) of one placement."""
        free, _run, _end, t_range = _placement_geometry(template, placement)
        # one power per distinct bound: a product of one factor per free
        # coordinate costs time quadratic in their number
        free_box = prod(pow(2 * b + 1, k) for b, k in Counter(bounds[i] for i in free).items())
        return free_box, len(t_range)

    if template.body_shape == "free-pairs" and not template.symmetry_reduction and p > 2:
        by_bound = sorted(range(1, n + 1), key=lambda i: bounds[i])
        narrowest, widest = by_bound[: p - 1], by_bound[n - p + 1 :]
        # t's range grows with the end's bound and with the run's smallest
        # bound, so it is widest with the end at the largest or at the
        # smallest of the p - 1 largest bounds
        t_max = max(box(tuple(widest))[1], box(tuple(widest[1:] + widest[:1]))[1])
        return perm(n, p - 1) * box(tuple(narrowest))[0] * t_max
    return sum(free_box * width for free_box, width in map(box, _placements(template)))


def search(template: SearchTemplate, cap: int = DEFAULT_CAP) -> list[CpConfiguration]:
    """All chain configurations matching the template inside its box.

    Raises SearchCapExceeded before enumerating anything when the estimate
    exceeds the cap. Every hit is built by the CpConfiguration constructor,
    whose Gram verifier reads the raw coefficient rows and shares nothing
    with the enumerator's algebra; a hit it rejects is an enumerator bug and
    raises ConsistencyError. Output is sorted by class coefficients, so hits
    sharing a body are adjacent.
    """
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    estimate = estimate_search_space(template)
    if estimate > cap:
        raise SearchCapExceeded(estimate, cap)

    raw = [hit for pl in _placements(template) for hit in _enumerate_placement(template, pl)]

    lat = AmbientLattice(template.n)
    # body_i = e_{x_i} - e_{x_{i+1}} along the placement
    bodies = {
        pl: tuple(lat.e(x) - lat.e(y) for x, y in zip(pl, pl[1:])) for pl in {pl for pl, _ in raw}
    }
    # every body key has length p - 2, so (body key, tail) orders hits exactly
    # as the flat tuple of all class coefficients does
    body_keys = {pl: tuple(u.coeffs for u in body) for pl, body in bodies.items()}
    raw.sort(key=lambda item: (body_keys[item[0]], item[1]))
    try:
        return [CpConfiguration(template.p, bodies[pl] + (ClassVector(lat, t),)) for pl, t in raw]
    except InvalidConfigurationError as exc:
        raise ConsistencyError(f"enumerated solution fails the Gram check: {exc}") from exc


@dataclass(frozen=True)
class FamilySearchReport:
    """Outcome of one open-range probe, labeled as homology-only evidence."""

    kind: str
    a: int
    template: SearchTemplate
    configurations: tuple[CpConfiguration, ...]
    label: str = "homological only; existence of an embedded configuration is not certified"

    @property
    def count(self) -> int:
        return len(self.configurations)


FAMILY_QUESTION_KINDS = ("3-chain", "4-chain")

# documented probe ranges for the two question families
FAMILY_QUESTION_RANGE = {"3-chain": range(3, 12), "4-chain": range(3, 7)}


def family_question_dimensions(a: int, kind: str) -> tuple[int, int]:
    """(n, p) of the question template at parameter a."""
    if kind not in FAMILY_QUESTION_KINDS:
        raise DomainError(f"kind must be one of {FAMILY_QUESTION_KINDS}, got {kind!r}")
    if kind == "3-chain":
        return 3 * a + 2, 4 * a - 9
    return 4 * a + 2, 6 * a - 11


def family_question_template(a: int, kind: str) -> SearchTemplate:
    """Default shaped box for the question at parameter a.

    Bounds follow the published tail shapes: h up to a + 3, the first
    exceptional coordinate up to a - 1, middle coordinates up to 2, the top
    coordinate up to 1. Raises TemplateError when the chain cannot fit the
    ambient rank at all (a >= 13 for the 3-chain).
    """
    if a < 3:
        raise DomainError(f"question templates need a >= 3, got a = {a}")
    n, p = family_question_dimensions(a, kind)
    bounds = [a + 3, a - 1] + [2] * (n - 2) + [1]
    return SearchTemplate(n=n, p=p, tail_bounds=tuple(bounds))


def search_family_questions(a: int, kind: str, cap: int = DEFAULT_CAP) -> FamilySearchReport:
    """Probe one open-range question with the default shaped box.

    The hits come from search, so each one has passed the Gram verifier at
    construction; nothing is re-checked here.
    """
    if kind not in FAMILY_QUESTION_KINDS:
        raise DomainError(f"kind must be one of {FAMILY_QUESTION_KINDS}, got {kind!r}")
    if a not in FAMILY_QUESTION_RANGE[kind]:
        r = FAMILY_QUESTION_RANGE[kind]
        raise DomainError(
            f"{kind} questions are posed for a in {r.start}..{r.stop - 1}, got a = {a}"
        )
    template = family_question_template(a, kind)
    return FamilySearchReport(
        kind=kind,
        a=a,
        template=template,
        configurations=tuple(search(template, cap=cap)),
    )
