"""Bounded enumeration of chain configurations inside a coefficient box.

A template fixes the ambient size n, the chain index p, the body shape, and
per-coordinate absolute bounds for the long class (h first). Bodies are
difference classes e_x - e_y on distinct indices; orthogonality against the
body forces most tail coordinates into a single run value t, the top index
into t + 1, and the h coefficient is solved from the square equation rather
than enumerated. Only genuinely free coordinates are walked, and only their
magnitudes: they enter a solution only through their squares, so each takes
m = 0..b, and a loop stops once the sum of squares passes every sum that
some (t, h) solves. A full magnitude assignment looks its sum up in a
per-placement table of solution rows (h and the run values set), kept to
the sums the walk can reach. Every sign pattern of a tabled leaf is a
solution; the signs are expanded in C, each signed tail exactly once, so
the enumeration returns exactly the box solutions while visiting at most
prod(b + 1) leaves where the box has prod(2b + 1) points.
Each solution becomes a CpConfiguration through the normal constructor, so
the one Gram verifier checks it from raw coefficients; its body block is
verified once per placement and memoized, and so are its pairings with each
run value's support values. A hit then costs one gather and one lookup plus
the O(n) square of its long class; the O(nnz) pairing loop (nnz: the body's
nonzero coefficients) runs once per distinct run value t.

Everything is deterministic: placements, coordinate order, and value order
are fixed, and results are sorted by their class coefficient tuples (body
first, then the long class), so hits that share a body come out next to
each other.
"""
from __future__ import annotations

from collections import Counter
from itertools import permutations, product, repeat
from math import comb, factorial, isqrt, prod
from operator import add, itemgetter

from .chains import CpConfiguration
from .errors import ConsistencyError, DomainError, InputTypeError
from .errors import InvalidConfigurationError, SearchCapExceeded, TemplateError
from .lattice import AmbientLattice, ClassVector, strict_int
from .report import Record, Report

DEFAULT_CAP = 10_000_000

BODY_SHAPES = ("consecutive-differences", "free-pairs")


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
    index. Without it: all ascending runs for the consecutive shape, and for
    free-pairs the injective sequences whose t range is not empty (use the
    estimate before walking these). A t range is empty exactly when the end
    index and some run index both have bound 0, so the end is picked first
    and a zero-bound end draws its run from the positive-bound indices only;
    every listed placement then counts at least 1 in the estimate, and the
    cap bounds the list. p = 2 has an empty body and a single empty placement.
    """
    n, p = template.n, template.p
    if p == 2:
        return [()]
    anchored = tuple(range(n - p + 2, n + 1))
    if template.symmetry_reduction:
        return [anchored]
    if template.body_shape == "consecutive-differences":
        return [tuple(range(s, s + p - 1)) for s in range(1, n - p + 3)]
    bounds, indices = template.tail_bounds, range(1, n + 1)
    positive = [i for i in indices if bounds[i]]
    placements = []
    for end in indices:
        pool = [i for i in indices if i != end] if bounds[end] else positive
        placements.extend(run + (end,) for run in permutations(pool, p - 2))
    return placements


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


def _solution_table(
    template: SearchTemplate, free, run, end, t_range
) -> dict[int, list[tuple[int, ...]]]:
    """Free sum s -> the rows of its solutions, once per placement.

    A row holds c0 at h, the run value t on the run and t + 1 at the end,
    and zeros elsewhere: a hit's tail is its row with the free coordinates
    filled in. For each t, c0^2 = s + need with need =
    (p - 2) t^2 + (t + 1)^2 - (p + 2), or -(p + 2) when p = 2, so each
    (t, c0) solves exactly one s. Only the s the walk can reach,
    0 <= s <= reach (the free bounds squared, summed), are kept:
    need <= c0^2 <= need + reach, and a t with no such c0 builds no row.
    Those c0 >= 0 span at most isqrt(reach) + 1 values, however large h's
    bound, so a t holds at most twice as many entries as the free box the
    estimate counts. Rows of one s come in t order, then c0 before -c0.
    """
    p, bounds = template.p, template.tail_bounds
    reach = sum(bounds[i] ** 2 for i in free)
    table: dict[int, list[tuple[int, ...]]] = {}
    for t in t_range:
        need = -(p + 2) if t is None else (p - 2) * t * t + (t + 1) * (t + 1) - (p + 2)
        if need + reach < 0:
            continue
        lo = isqrt(need - 1) + 1 if need > 0 else 0
        hi = min(bounds[0], isqrt(need + reach))
        if lo > hi:
            continue
        row = [0] * (template.n + 1)
        if t is not None:
            for i in run:
                row[i] = t
            row[end] = t + 1
        for c0 in range(lo, hi + 1):
            entries = table.setdefault(c0 * c0 - need, [])
            row[0] = c0
            entries.append(tuple(row))
            if c0:
                row[0] = -c0
                entries.append(tuple(row))
    return table


def _enumerate_placement(
    template: SearchTemplate, placement: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The tail coefficients of every solution for one body placement.

    The walk visits magnitudes: each free coordinate takes m = 0..b in
    ascending order, and the loop stops once the sum passes the largest
    tabled sum. At a leaf whose sum is tabled, itertools.product over (0,)
    for m = 0 and (-m, m) otherwise expands the signs in C, each signed tail
    exactly once, and one itemgetter per placement reads each tail off its
    row + signs. So the walk visits at most prod(b + 1) leaves, against the
    prod(2b + 1) box points the estimate counts per run value.
    """
    bounds = template.tail_bounds
    free, run, end, t_range = _placement_geometry(template, placement)
    table = _solution_table(template, free, run, end, t_range)
    if not table:
        return []
    s_max = max(table)
    n, depth = template.n, len(free)
    # free coordinate k is read from row + signs at n + 1 + k
    at = dict(zip(free, range(n + 1, n + 1 + depth)))
    place = itemgetter(*(at.get(i, i) for i in range(n + 1)))
    top = max((bounds[i] for i in free), default=0)
    signed = [(0,)] + [(-m, m) for m in range(1, top + 1)]
    signs = [()] * depth
    out = []

    def walk(idx: int, s: int) -> None:
        if idx == depth:
            for row in table.get(s, ()):
                out.extend(map(place, map(add, repeat(row), product(*signs))))
            return
        for m in range(bounds[free[idx]] + 1):
            s_next = s + m * m
            if s_next > s_max:
                break
            signs[idx] = signed[m]
            walk(idx + 1, s_next)

    walk(0, 0)
    return out


def _times_binomial_power(series: list[int], w: int, c: int) -> list[int]:
    """series(x) * (w + x)^c, truncated to the degree of series."""
    top = min(c, len(series) - 1)
    factor, power = [0] * (top + 1), pow(w, c - top)
    for j in range(top, -1, -1):
        factor[j] = comb(c, j) * power
        power *= w
    return [
        sum(factor[j] * series[d - j] for j in range(min(d, top) + 1)) for d in range(len(series))
    ]


def _free_pairs_box_sum(template: SearchTemplate) -> int:
    """Sum of free box x t range width over every unreduced free-pairs placement.

    With w = 2b + 1 per index, a placement's free box is the product of w
    over the indices off it, and its t range width is min(w_m, w_e) - [m = b_e]
    for the run's smallest bound m and the end's bound b_e. Group placements
    by their set T of p - 1 indices: the run orders give (p - 2)!, and the
    p - 1 choices of end give widths summing to (p - 1) w - (r - 1) - [r >= 2],
    where w is that of T's smallest bound b and r counts T's indices at b.
    Such a set leaves every index below b free. The rest of T comes from
    the bounds above b, counted with their free products by the x^(p-1-r)
    coefficient of the product of (w + x)^c over those bounds, c indices
    each. Bounds are taken from the top, so the free product below b is
    accumulated Horner style, one power per distinct bound.
    """
    k = template.p - 2
    series = [1] + [0] * (k + 1)  # the product over the bounds above b
    total = 0
    for b, c in sorted(Counter(template.tail_bounds[1:]).items(), reverse=True):
        w = 2 * b + 1
        top = min(c, k + 1)
        power, at_b = pow(w, c - top), 0
        for r in range(top, 0, -1):
            widths = (k + 1) * w - (r - 1) - (r >= 2)
            at_b += comb(c, r) * power * series[k + 1 - r] * widths
            power *= w
        # Horner from the top: every bound above b gains b's w^c as free
        total = at_b + power * total
        series = _times_binomial_power(series, w, c)
    return factorial(k) * total


def estimate_search_space(template: SearchTemplate) -> int:
    """Box points of the search: signed free assignments times run values.

    h is solved, not counted. Exact: the sum over placements of the free
    box, prod(2b + 1) signed points, times the width of the t range. The
    walk visits fewer: at most prod(b + 1) magnitude leaves per placement,
    one lookup covering every t. The cap and its refusal message count box
    points all the same. Unreduced free-pairs templates have too many
    placements to list, so their sum is taken in closed form (see
    _free_pairs_box_sum).
    """
    if template.body_shape == "free-pairs" and not template.symmetry_reduction and template.p > 2:
        return _free_pairs_box_sum(template)
    bounds = template.tail_bounds

    def box(placement: tuple[int, ...]) -> int:
        free, _run, _end, t_range = _placement_geometry(template, placement)
        # one power per distinct bound: a product of one factor per free
        # coordinate costs time quadratic in their number
        free_box = prod(pow(2 * b + 1, k) for b, k in Counter(bounds[i] for i in free).items())
        return free_box * len(t_range)

    return sum(map(box, _placements(template)))


def _difference_row(rank: int, x: int, y: int) -> tuple[int, ...]:
    """The coefficient row of e_x - e_y, for distinct x and y."""
    row = [0] * rank
    row[x], row[y] = 1, -1
    return tuple(row)


def search(template: SearchTemplate, cap: int = DEFAULT_CAP) -> list[CpConfiguration]:
    """All chain configurations matching the template inside its box.

    Raises SearchCapExceeded before enumerating anything when the estimate
    exceeds the cap. Every hit is built by the CpConfiguration constructor,
    whose Gram verifier reads the raw coefficient rows and shares nothing
    with the enumerator's algebra; a hit it rejects is an enumerator bug and
    raises ConsistencyError. Hits of one placement share their body
    classes, and hits of one run value their values on the body's support,
    so the constructor gathers and looks up each long class's body pairings
    and computes only its square, O(n).
    Output is sorted by class coefficients, so hits sharing a body are
    adjacent.
    """
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    estimate = estimate_search_space(template)
    if estimate > cap:
        raise SearchCapExceeded(estimate, cap)

    lat = AmbientLattice(template.n)
    found = []
    for pl in _placements(template):
        tails = _enumerate_placement(template, pl)
        if tails:
            # body_i = e_{x_i} - e_{x_{i+1}} along the placement, as one row
            body = tuple(
                ClassVector(lat, _difference_row(lat.rank, x, y)) for x, y in zip(pl, pl[1:])
            )
            found.append((tuple(u.coeffs for u in body), body, sorted(tails)))
    # distinct placements have distinct bodies, all of length p - 2, so
    # sorting by body and then by tail orders hits exactly as the flat
    # tuple of all class coefficients does
    found.sort(key=itemgetter(0))
    try:
        return [
            CpConfiguration(template.p, body + (ClassVector(lat, tail),))
            for _, body, tails in found
            for tail in tails
        ]
    except InvalidConfigurationError as exc:
        raise ConsistencyError(f"enumerated solution fails the Gram check: {exc}") from exc


class FamilySearchReport(Record):
    """Outcome of one open-range probe, labeled as homology-only evidence."""

    kind: str
    a: int
    template: SearchTemplate
    configurations: tuple[CpConfiguration, ...]
    label: str = (
        "homological only, inside the searched box; "
        "existence of an embedded configuration is not certified"
    )

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
