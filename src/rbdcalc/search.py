"""Bounded enumeration of chain configurations inside a coefficient box.

A template fixes the ambient size n, the chain index p, and per-coordinate
absolute bounds for the long class (h first). The body is the run of
difference classes e_x - e_{x+1} anchored at the top index, p - 2 rows of
n + 1 coefficients; a template whose body would hold more than MAX_N + 1
of them, one row at the largest n, is refused before any row is built:
the cap counts box points, not the body, and a box of bound 0 has one. A
body on any other indices is the anchored one moved by a permutation of
the e_i, an isometry fixing h, K_std and every pairing, so hits are found
up to that symmetry. Orthogonality against the body forces the run's tail
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
search_hits returns the hits as sign orbits in integer rows, with no
lattice object: the body rows, the flip columns and one representative
row per orbit. The sign orbit is the unit of the Gram check: the flip
columns are checked once against the body support, and each
representative, not each hit, goes through the one Gram check that the
CpConfiguration constructor runs (chains.check_tails), all of them as one
batch against the body rows. An orbit is expanded only when its hits are
read: SearchHits.expand gives every hit's row, and SearchHits.rows every
hit's row as JSON text, which expands only the flip columns, since every
column after the last of them is constant on an orbit.

Everything is deterministic: coordinate order and value order are fixed,
and the hits are read sorted by their class coefficient tuples.
"""
from __future__ import annotations

from collections import Counter
from itertools import product
from math import isqrt, prod
from operator import add

from .chains import check_tails
from .errors import ConsistencyError, DomainError
from .errors import InvalidConfigurationError, SearchCapExceeded, TemplateError
from .lattice import strict_int, strict_object
from .report import Record, Report

DEFAULT_CAP = 10_000_000

# the walk recurses once per free coordinate; with 4 or more of them, a
# search with any solution tables a sum of at least 4, so its walk visits
# at least C(free, 4) leaves: more than 10^8 past this many
MAX_FREE_COORDINATES = 256

# the largest ambient size a template takes: its n + 1 bounds are one tuple,
# so one integer bound for a larger n could ask for more memory than there
# is before any check; at this n the cap refuses a box of bound 1 in about
# 0.4 s and 60 MB (CPython 3.11). The cap counts box points, not the body,
# so the body's p - 2 rows of n + 1 coefficients are held to one row at this n
MAX_N = 1_000_000

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
        if self.n > MAX_N:
            raise DomainError(f"need n <= {MAX_N}, got n = {self.n}")
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
        if (self.p - 2) * (self.n + 1) > MAX_N + 1:
            raise DomainError(
                f"need (p - 2)(n + 1) <= {MAX_N + 1} body coefficients, "
                f"got p = {self.p}, n = {self.n}"
            )

    @classmethod
    def uniform(cls, n: int, p: int, bound: int) -> "SearchTemplate":
        # an n past MAX_N is refused before its bounds are built
        return cls(n=n, p=p, tail_bounds=(bound,) * (n + 1) if n <= MAX_N else ())

    @classmethod
    def from_json(cls, data) -> "SearchTemplate":
        """The template of an object with n, p and tail_bounds (one bound
        for every coordinate, or a list, h first), and optionally
        body_shape and symmetry_reduction at their ANCHORED_KEYS values,
        which the template does not keep. Another root, a missing or
        unknown key, or a value of another kind raises InputTypeError;
        another value of body_shape or symmetry_reduction raises
        DomainError naming the key. The constructor's checks follow, the
        last of them a body of (p - 2)(n + 1) > MAX_N + 1 coefficients,
        refused (DomainError naming p and n) before any row is built."""
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
        if type(bounds) is int:
            return cls.uniform(data["n"], data["p"], bounds)
        bounds = tuple(strict_int(b, "tail_bounds entry") for b in bounds)
        return cls(n=data["n"], p=data["p"], tail_bounds=bounds)


def _geometry(template: SearchTemplate) -> tuple[tuple[int, ...], range, tuple]:
    """(free, run, t_range) of the anchored body.

    The body is e_x - e_{x+1} for x in the run top+1..n-1, so its support
    is top+1..n and its end index is n; top = n at p = 2, whose body is
    empty, and n - p + 1 otherwise. The free coordinates are 1..top with a
    nonzero bound: a coordinate with bound 0 can only be 0, so the walk
    recurses once per free coordinate and never visits it. t_range holds
    the run values, or only None at p = 2, which has no run.
    """
    n, p, bounds = template.n, template.p, template.tail_bounds
    top = n if p == 2 else n - p + 1
    free = tuple(i for i in range(1, top + 1) if bounds[i])
    run = range(top + 1, n)
    if p == 2:
        return free, run, (None,)
    run_cap = min(bounds[top + 1 : n])
    lo = max(-run_cap, -bounds[n] - 1)
    hi = min(run_cap, bounds[n] - 1)
    return free, run, tuple(range(lo, hi + 1))


def _solution_table(
    template: SearchTemplate, free, run, t_range
) -> dict[int, list[tuple[int, ...]]]:
    """Free sum s -> the rows of its solutions with c0 >= 0.

    A row holds c0 at h, the run value t on the run and t + 1 at n, and
    zeros elsewhere: a representative is its row with the free
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
            row[-1] = t + 1
        for c0 in range(lo, hi + 1):
            row[0] = c0
            table.setdefault(c0 * c0 - need, []).append(tuple(row))
    return table


def _enumerate_placement(template: SearchTemplate) -> list[tuple[int, ...]]:
    """One representative row per solving leaf and table row.

    The walk visits magnitudes: each free coordinate takes m = 0..b in
    ascending order, and the loop stops once the sum passes the largest
    tabled sum. At a leaf whose sum is tabled, each of its rows (c0 >= 0)
    with the leaf's magnitudes in the free columns is one representative.
    Its sign orbit, every sign of c0 and of each nonzero free magnitude,
    is the set of hits it stands for (see _expand), and each hit lies in
    exactly one orbit. So the walk visits at most prod(b + 1) leaves,
    against the prod(2b + 1) box points the estimate counts per run value.
    A search with solutions and more than MAX_FREE_COORDINATES free
    coordinates is refused (TemplateError) before its walk.
    """
    bounds = template.tail_bounds
    free, run, t_range = _geometry(template)
    table = _solution_table(template, free, run, t_range)
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


def _pools(flips: tuple[int, ...], row) -> list[tuple[int, ...]]:
    """One pool per column of row whose product is the row's sign orbit:
    (-v, v) at a nonzero flip column and (v,) elsewhere, so
    itertools.product reads off each member exactly once, in C."""
    pools = list(zip(row))
    for i in flips:
        v = row[i]
        if v:
            pools[i] = (-v, v)
    return pools


def _expand(flips: tuple[int, ...], reps) -> tuple[tuple[int, ...], ...]:
    """Every member of each representative's sign orbit, sorted: every row
    that differs from it only in the signs of its flip columns (h and the
    free coordinates, ascending)."""
    tails = []
    for rep in reps:
        tails.extend(product(*_pools(flips, rep)))
    tails.sort()
    return tuple(tails)


def estimate_search_space(template: SearchTemplate) -> int:
    """Box points of the search: signed free assignments times run values.

    h is solved, not counted. Exact: the free box, prod(2b + 1) signed
    points, times the width of the t range. The walk visits fewer: at most
    prod(b + 1) magnitude leaves, one lookup covering every t. The cap and
    its refusal message count box points all the same.
    """
    free, _run, t_range = _geometry(template)
    # one power per distinct bound: a product of one factor per free
    # coordinate costs time quadratic in their number
    bounds = template.tail_bounds
    free_box = prod(pow(2 * b + 1, k) for b, k in Counter(bounds[i] for i in free).items())
    return free_box * len(t_range)


class SearchHits(Record):
    """Every hit of one search as sign orbits of integer rows in Z^{1,n}:
    the body, the flip columns and one representative row per orbit.

    The body is the p - 2 rows every hit shares. The flip columns are h
    and the free coordinates, ascending; every column between them is 0.
    Each representative is a long-class row that passed the one Gram check
    (chains.check_tails) against the body, with c0 and the free
    magnitudes nonnegative, and its orbit, every sign of its nonzero flip
    entries, is a set of hits that share its Gram matrix. The orbits are
    disjoint, so the hits are counted without expanding one; expand and
    rows read them sorted by their class coefficients.
    """

    p: int
    n: int
    body: tuple[tuple[int, ...], ...]
    flips: tuple[int, ...]
    reps: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        """The sum of the orbit sizes: 2^(nonzero flip entries) each.

        Below the last flip column every other column is 0, so a row's
        nonzero flip entries are the nonzero entries of that prefix."""
        stop = self.flips[-1] + 1
        return sum(1 << (stop - rep[:stop].count(0)) for rep in self.reps)

    def expand(self) -> tuple[tuple[int, ...], ...]:
        """Every hit's long-class row, sorted."""
        return _expand(self.flips, self.reps)

    def rows(self):
        """Each hit's long-class row as compact JSON text, in expand order.

        The flip columns end at stop, and every column from there on is
        constant on an orbit and fixed by the last one: zeros, then at
        p > 2 the run value t on the run and t + 1 at n. So an orbit
        expands only its first stop columns: once as integers, with the
        last column after them, for a flat sort key, and once as text,
        each column's values formatted once per orbit, with "[" before
        the first and the orbit's constant columns after the last.
        """
        flips = self.flips
        stop = flips[-1] + 1
        keys, texts, ends = [], [], {}
        for rep in self.reps:
            rest = rep[stop:]
            last = rest[-1] if rest else 0
            if last not in ends:
                ends[last] = "".join(map(",%d".__mod__, rest)) + "]"
            pools = _pools(flips, rep[:stop])
            keys.extend(product(*pools, (last,)))
            words = [[str(v) for v in pool] for pool in pools]
            words[0] = ["[" + word for word in words[0]]
            words[-1] = [word + ends[last] for word in words[-1]]
            texts.extend(map(",".join, product(*words)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return map(texts.__getitem__, order)


def search_hits(template: SearchTemplate, cap: int = DEFAULT_CAP) -> SearchHits:
    """All chain configurations on the anchored body matching the template,
    as checked sign orbits.

    Raises SearchCapExceeded before enumerating anything when the estimate
    exceeds the cap. The Gram check runs once per sign orbit: the flip
    columns are checked once to miss the body support, the representatives
    go through chains.check_tails, the Gram check the CpConfiguration
    constructor runs, as one batch of rows against the body rows; no orbit
    is expanded. A flip off the body support fixes every body pairing and
    the square, so each hit is certified exactly.
    The check shares nothing with the enumerator's algebra, so a flip
    column on the body or a row it rejects is an enumerator bug and raises
    ConsistencyError. No CpConfiguration, ClassVector or AmbientLattice is
    built.
    """
    if cap < 1:
        raise DomainError(f"cap must be positive, got {cap}")
    estimate = estimate_search_space(template)
    if estimate > cap:
        raise SearchCapExceeded(estimate, cap)

    p, n = template.p, template.n
    free, run, _t_range = _geometry(template)
    # e_x - e_{x+1} for x in the run
    body = tuple((0,) * x + (1, -1) + (0,) * (n - x - 1) for x in run)
    reps = tuple(_enumerate_placement(template))
    flips = (0,) + free
    met = sorted({i for u in body for i in flips if u[i]})
    if met:
        raise ConsistencyError(f"sign-flip columns {met} meet the body support")
    try:
        check_tails(p, n + 1, body, reps)
    except InvalidConfigurationError as exc:
        raise ConsistencyError(f"enumerated solution fails the Gram check: {exc}") from exc
    return SearchHits(p, n, body, flips, reps)
