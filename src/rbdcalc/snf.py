"""The Smith form of C_p's restriction map, in closed form.

For a configuration u_1, ..., u_{p-1} with Gram matrix Q (the C_p matrix),
the restriction map r(x) = (x.u_1, ..., x.u_{p-1}) is read through one
number. The last column of p^2 Q^-1 is -(1, ..., p - 1), so
phi(b) = sum_i i b_i (mod p^2) identifies Z^{p-1}/Q Z^{p-1} with Z/p^2,
and phi(r(x)) = x.v for v = sum_i i u_i. Every value x.v is a multiple of
content(v), so the image of r is {b : g | phi(b)} for
g = gcd(p^2, content(v)), and H1 of the blowdown is trivial exactly when
g = 1.

Take a class y whose c = y.v has gcd(c, p^2) = g: the first basis vector
that does, else basis vectors folded in one at a time (Bezout). For b in
the image of r, with m = p^2/g,

    s(b) = t y + sum_i a_i u_i,
    t = (phi(b)/g) (c/g)^-1 (mod m), taken in (-m/2, m/2],
    a = p^2 Q^-1 (b - t r(y)) / p^2,

is a class with r(s(b)) = b: phi(b - t r(y)) = 0 (mod p^2), so
b - t r(y) lies in Q Z^{p-1} and the division is exact. p^2 Q^-1 is
chains.cp_scaled_inverse, O(p), so nothing here eliminates. The kernel of
r, the complement S^perp of the configuration, is generated by
f_j - s(r(f_j)) over the basis classes f_j and by
z0 = m y - sum_i (p^2 Q^-1 r(y))_i / g u_i, which is needed because t is
reduced mod m, so s is not linear.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import gcd
from operator import mul, sub

from .chains import CpConfiguration, cp_scaled_inverse


class Section:
    """s(b) with r(s(b)) = b for each b in the image of cfg's restriction
    map r, and generators of its kernel, all as class rows."""

    def __init__(self, cfg: CpConfiguration):
        p = cfg.p
        self.cfg = cfg
        self.columns = list(zip(*cfg.classes))
        # e_j.v: s_j times column j's share of v, s_0 = +1 and s_j = -1
        dots = [sum(map(mul, column, range(1, p))) for column in self.columns]
        dots[1:] = [-d for d in dots[1:]]
        q = p * p
        self.g = gcd(q, *dots)
        y = [0] * len(dots)
        j = next((j for j, d in enumerate(dots) if gcd(d, q) == self.g), None)
        if j is not None:
            y[j] = 1
        else:
            c = 0
            for j, d in enumerate(dots):
                step = gcd(c, d, q)
                if step < gcd(c, q):
                    y[j] = next(k for k in range(1, q) if gcd(c + k * d, q) == step)
                    c += y[j] * d
        self.y = tuple(y)
        self.ry = cfg.pairings(self.y)
        self.m = q // self.g
        self.inverse = pow(sum(map(mul, range(1, p), self.ry)) // self.g, -1, self.m)

    def __call__(self, b: Sequence[int]) -> tuple[int, ...]:
        p, m = self.cfg.p, self.m
        t = sum(map(mul, range(1, p), b)) // self.g * self.inverse % m
        if 2 * t > m:
            t -= m
        scaled = cp_scaled_inverse(p, [x - t * r for x, r in zip(b, self.ry)])
        return self._combine(t, [x // (p * p) for x in scaled])

    def _combine(self, t: int, a: Sequence[int]) -> tuple[int, ...]:
        """The class t y + sum_i a_i u_i."""
        return tuple(t * k + sum(map(mul, a, column)) for k, column in zip(self.y, self.columns))

    def complement(self) -> Iterator[tuple[int, ...]]:
        """Generators of the classes orthogonal to every u_i, built one at a
        time: f_j - s(r(f_j)) for j = 0..n, then z0."""
        cfg = self.cfg
        for j in range(cfg.n + 1):
            f = (0,) * j + (1,) + (0,) * (cfg.n - j)
            yield tuple(map(sub, f, self(cfg.pairings(f))))
        scaled = cp_scaled_inverse(cfg.p, self.ry)
        yield self._combine(self.m, [-x // self.g for x in scaled])
