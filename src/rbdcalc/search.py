"""Bounded enumeration of chain configurations inside a coefficient box.

A template fixes the ambient size n, the chain index p, and per-coordinate
absolute bounds for the long class (h first). The body is the run of
difference classes e_x - e_{x+1} anchored at the top index; a body on any
other indices is the anchored one moved by a permutation of the e_i, an
isometry fixing h, K_std and every pairing, so hits are found up to that
symmetry. Orthogonality against the body forces the run's tail
coordinates into a single run value t, the top index into t + 1, and the
h coefficient is solved from the square equation rather than enumerated.
Only genuinely free coordinates are walked, and only their magnitudes: they
enter a solution only through their squares, so each takes m = 0..b, and a
loop stops once the sum of squares passes every sum that some (t, h)
solves. A full magnitude assignment looks its sum up in a table of
solution rows (c0 >= 0 at h and the run values set), kept to the sums the
walk can reach, and each tabled row with the magnitudes filled in is one
representative. The flip columns, h and the free coordinates, lie off the
support of every body row, so a sign flip there fixes each body pairing
and the square of the long class: the sign orbit of a representative,
expanded in C with each signed tail exactly once, is a set of hits that
share one Gram matrix. The walk visits at most prod(b + 1) leaves where
the box has prod(2b + 1) points.
search_hits returns the hits as rows: the body classes and the sorted tail
rows. The sign orbit is the unit of the Gram check: the flip columns are
checked once against the body support, and each representative, not each
hit, goes through the one Gram check that the CpConfiguration constructor
runs (chains.check_tails), all of them as one batch against the body;
then each representative is expanded into its orbit.

Everything is deterministic: coordinate order and value order are fixed,
and the tails are sorted, so hits come sorted by their class coefficient
tuples.
"""
from __future__ import annotations

from collections import Counter
from itertools import product
from math import isqrt, prod
from operator import add

from .chains import check_tails
from .errors import ConsistencyError, DomainError
from .errors import InvalidConfigurationError, SearchCapExceeded, TemplateError
from .lattice import AmbientLattice, ClassVector, strict_int, strict_object
from .report import Record, Report

DEFAULT_CAP = 10_000_000

# the walk recurses once per free coordinate; with 4 or more of them, a
# placement with any solution tables a sum of at least 4, so its walk visits
# at least C(free, 4) leaves: more than 10^8 past this many
MAX_FREE_COORDINATES = 256

# keys a template may hold that select no option: each is read only at the
# value that names the anchored placement (as a message shows it), so that
# templates written when other placements could be listed, such as the
# benchmark's, still load
ANCHORED_KEYS = {
    "body_shape": ("consecutive-differences", '"consecutive-differences"'),
    "symmetry_reduction": (True, "true"),
}


class SearchTemplate(Report):
    """Box description for a bounded configuration search."""

    n: int
    p: int
    tail_bounds: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"need p >= 2, got p = {self.p}")
        if self.n < 1:
            raise DomainError(f"need n >= 1, got n = {self.n}")
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
    def uniform(cls, n: int, p: int, bound: int) -> "SearchTemplate":
        return cls(n=n, p=p, tail_bounds=(bound,) * (n + 1))

    @classmethod
    def from_json(cls, data) -> "SearchTemplate":
        """The template of an object with n, p and tail_bounds (one bound
        for every coordinate, or a list, h first), and optionally
        body_shape and symmetry_reduction at their ANCHORED_KEYS values,
        which the template does not keep. Another root, a missing or
        unknown key, or a value of another kind raises InputTypeError;
        another value of body_shape or symmetry_reduction raises
        DomainError naming the key."""
        strict_object(
            data,
            {"n": int, "p": int, "tail_bounds": (int, list)},
            {"body_shape": str, "symmetry_reduction": bool},
        )
        for key, (value, shown) in ANCHORED_KEYS.items():
            if data.get(key, value) != value:
                raise DomainError(
                    f"{key} must be {shown}: the search takes only the anchored placement"
                )
        bounds = data["tail_bounds"]
        if type(bounds) is list:
            bounds = tuple(strict_int(b, "tail_bounds entry") for b in bounds)
        else:
            bounds = (bounds,) * (data["n"] + 1)
        return cls(n=data["n"], p=data["p"], tail_bounds=bounds)


def _placement(template: SearchTemplate) -> tuple[int, ...]:
    """The body's index sequence x_1..x_{p-1}, body_i = e_{x_i} - e_{x_{i+1}}:
    the ascending run anchored at the top index, or () for p = 2, whose
    body is empty."""
    n, p = template.n, template.p
    return tuple(range(n - p + 2, n + 1)) if p > 2 else ()


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
    """Free sum s -> the rows of its solutions with c0 >= 0.

    A row holds c0 at h, the run value t on the run and t + 1 at the end,
    and zeros elsewhere: a representative is its row with the free
    magnitudes filled in. For each t, c0^2 = s + need with need =
    (p - 2) t^2 + (t + 1)^2 - (p + 2), or -(p + 2) when p = 2, so each
    (t, c0) solves exactly one s. Only the s the walk can reach,
    0 <= s <= reach (the free bounds squared, summed), are kept:
    need <= c0^2 <= need + reach, and a t with no such c0 builds no row.
    Those c0 >= 0 span at most isqrt(reach) + 1 values, however large h's
    bound, so a t holds at most as many entries as the free box the
    estimate counts. -c0 is not tabled: it is a sign flip at h, which
    _expand reads off. Rows of one s come in t order.
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
            row[0] = c0
            table.setdefault(c0 * c0 - need, []).append(tuple(row))
    return table


def _enumerate_placement(
    template: SearchTemplate, placement: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """One representative row per solving leaf and table row of one placement.

    The walk visits magnitudes: each free coordinate takes m = 0..b in
    ascending order, and the loop stops once the sum passes the largest
    tabled sum. At a leaf whose sum is tabled, each of its rows (c0 >= 0)
    with the leaf's magnitudes in the free columns is one representative.
    Its sign orbit, every sign of c0 and of each nonzero free magnitude,
    is the set of hits it stands for (see _expand), and each hit lies in
    exactly one orbit. So the walk visits at most prod(b + 1) leaves,
    against the prod(2b + 1) box points the estimate counts per run value.
    A placement with solutions and more than MAX_FREE_COORDINATES free
    coordinates is refused (TemplateError) before its walk.
    """
    bounds = template.tail_bounds
    free, run, end, t_range = _placement_geometry(template, placement)
    table = _solution_table(template, free, run, end, t_range)
    if not table:
        return []
    s_max = max(table)
    depth = len(free)
    if depth > MAX_FREE_COORDINATES:
        raise TemplateError(
            f"{depth} free coordinates (nonzero bounds off the body) exceed the "
            f"{MAX_FREE_COORDINATES} the walk takes; shrink the template bounds"
        )
    # the leaf's magnitudes in the free columns, zeros elsewhere; every
    # path to a leaf sets each free column, so none is reset
    point = [0] * (template.n + 1)
    out = []

    def walk(idx: int, s: int) -> None:
        if idx == depth:
            for row in table.get(s, ()):
                out.append(tuple(map(add, point, row)))
            return
        coord = free[idx]
        for m in range(bounds[coord] + 1):
            s_next = s + m * m
            if s_next > s_max:
                break
            point[coord] = m
            walk(idx + 1, s_next)

    walk(0, 0)
    # walk refers to itself through its closure cell; clearing the cell
    # breaks that cycle, so out, the table and point are freed on return
    # rather than by the cyclic collector
    del walk
    return out


def _expand(flips: tuple[int, ...], reps) -> tuple[tuple[int, ...], ...]:
    """Every member of each representative's sign orbit, sorted.

    The orbit of a row is every row that differs from it only in the signs
    of its flip columns (h and the free coordinates, ascending): one pool
    per column, (-v, v) at a nonzero flip column and (v,) elsewhere, and
    itertools.product over the pools reads off each member exactly once,
    in C. A row too short to hold the last flip column is passed on as it
    is, for the check that refuses its length.
    """
    last = flips[-1]
    tails = []
    for rep in reps:
        pools = list(zip(rep))
        if len(pools) > last:
            for i in flips:
                v = rep[i]
                if v:
                    pools[i] = (-v, v)
        tails.extend(product(*pools))
    tails.sort()
    return tuple(tails)


def estimate_search_space(template: SearchTemplate) -> int:
    """Box points of the search: signed free assignments times run values.

    h is solved, not counted. Exact: the free box, prod(2b + 1) signed
    points, times the width of the t range. The walk visits fewer: at most
    prod(b + 1) magnitude leaves, one lookup covering every t. The cap and
    its refusal message count box points all the same.
    """
    free, _run, _end, t_range = _placement_geometry(template, _placement(template))
    # one power per distinct bound: a product of one factor per free
    # coordinate costs time quadratic in their number
    bounds = template.tail_bounds
    free_box = prod(pow(2 * b + 1, k) for b, k in Counter(bounds[i] for i in free).items())
    return free_box * len(t_range)


def _difference_row(rank: int, x: int, y: int) -> tuple[int, ...]:
    """The coefficient row of e_x - e_y, for distinct x and y."""
    row = [0] * rank
    row[x], row[y] = 1, -1
    return tuple(row)


class SearchHits(Record):
    """Every hit of one search as rows: the body and the sorted tails.

    The body is the p - 2 classes every hit shares, and the tails are the
    hits' long-class coefficient rows, sorted, so the hits read sorted by
    their class coefficients. Every tail is a sign orbit member of a
    representative row that passed the one Gram check (chains.check_tails)
    against the body, and so has its Gram matrix.
    """

    p: int
    lattice: AmbientLattice
    body: tuple[ClassVector, ...]
    tails: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.tails)


def search_hits(template: SearchTemplate, cap: int = DEFAULT_CAP) -> SearchHits:
    """All chain configurations on the anchored body matching the template,
    as checked rows.

    Raises SearchCapExceeded before enumerating anything when the estimate
    exceeds the cap. The Gram check runs once per sign orbit: the flip
    columns are checked once to miss the body support, the representatives
    go through chains.check_tails, the Gram check the CpConfiguration
    constructor runs, as one batch on their raw coefficients, and then each
    is expanded into its orbit (_expand). A flip off the body support fixes
    every body pairing and the square, so each hit is certified exactly.
    The check shares nothing with the enumerator's algebra, so a flip
    column on the body or a row it rejects is an enumerator bug and raises
    ConsistencyError. No CpConfiguration is built.
    """
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    estimate = estimate_search_space(template)
    if estimate > cap:
        raise SearchCapExceeded(estimate, cap)

    p, lat = template.p, AmbientLattice(template.n)
    pl = _placement(template)
    # body_i = e_{x_i} - e_{x_{i+1}} along the placement, as one row
    body = tuple(ClassVector(lat, _difference_row(lat.rank, x, y)) for x, y in zip(pl, pl[1:]))
    reps = _enumerate_placement(template, pl)
    flips = (0,) + _placement_geometry(template, pl)[0]
    met = sorted({i for u in body for i in flips if u.coeffs[i]})
    if met:
        raise ConsistencyError(f"sign-flip columns {met} meet the body support")
    try:
        check_tails(p, lat, body, reps)
    except InvalidConfigurationError as exc:
        raise ConsistencyError(f"enumerated solution fails the Gram check: {exc}") from exc
    return SearchHits(p=p, lattice=lat, body=body, tails=_expand(flips, reps))


class FamilySearchReport(Record):
    """Outcome of one open-range probe, labeled as homology-only evidence."""

    kind: str
    a: int
    template: SearchTemplate
    hits: SearchHits
    label: str = (
        "homological only, inside the searched box; "
        "existence of an embedded configuration is not certified"
    )

    @property
    def count(self) -> int:
        return self.hits.count


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

    The hits come from search_hits, so each one's sign-orbit representative
    has passed the Gram check as a row; nothing is re-checked here.
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
        hits=search_hits(template, cap=cap),
    )
