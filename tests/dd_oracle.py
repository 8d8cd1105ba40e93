"""Extreme-ray enumeration for {h : ineq.h >= 0, eq.h = 0} by double description.

Independent ground-truth oracle for small cones: a linear objective is
nonnegative everywhere on the cone iff it is nonnegative on every extreme ray
and exactly zero on every lineality basis vector.  This module shares nothing
with the simplex solver it is used to check.

The incremental step is the textbook one.  While the cone still contains a
lineality vector w with a.w != 0, the halfspace insertion is a pivot: w
becomes a ray (signed so a.w > 0) and every other generator is shifted along
w onto {a = 0}, which leaves the values of all previously inserted halfspaces
unchanged.  Once no lineality vector meets the halfspace, rays are split by
the sign of a.r and adjacent (+,-) pairs are combined into new boundary rays,
with adjacency decided combinatorially from tight sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def primitive(v: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers."""
    den_lcm = 1
    for x in v:
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def extreme_rays(ineqs: list[Vec], eqs: list[Vec], dim: int) -> tuple[list[Vec], list[Vec]]:
    """Return (extreme rays, lineality basis) of the cone, rays primitive and sorted."""
    unit = [Fraction(0)] * dim
    lineality: list[Vec] = []
    for i in range(dim):
        e = unit[:]
        e[i] = Fraction(1)
        lineality.append(tuple(e))
    rays: list[Vec] = []
    tight: list[set[int]] = []  # per ray: indices of processed halfspaces at equality

    halfspaces: list[Vec] = []
    for e in eqs:  # equalities first: they only trigger cheap lineality pivots
        halfspaces.append(tuple(e))
        halfspaces.append(tuple(-x for x in e))
    halfspaces.extend(tuple(r) for r in ineqs)

    for idx, a in enumerate(halfspaces):
        pivot = None
        for k, w in enumerate(lineality):
            if dot(a, w) != 0:
                pivot = k
                break
        if pivot is not None:
            w = lineality.pop(pivot)
            aw = dot(a, w)
            if aw < 0:
                w = tuple(-x for x in w)
                aw = -aw
            lineality = [
                tuple(lx - dot(a, l) / aw * wx for lx, wx in zip(l, w)) for l in lineality
            ]
            rays = [
                primitive(tuple(rx - dot(a, r) / aw * wx for rx, wx in zip(r, w))) for r in rays
            ]
            # previous halfspace values are unchanged, so tight sets carry over
            rays.append(primitive(w))
            tight.append({k for k in range(idx)})
            for t in tight[:-1]:
                t.add(idx)
            continue

        vals = [dot(a, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v >= 0]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        for ip in plus:
            for im in minus:
                common = tight[ip] & tight[im]
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and common <= tight[k]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[ip] * rm - vals[im] * rp for rp, rm in zip(rays[ip], rays[im])
                )
                if any(combo):
                    new_rays.append(primitive(combo))
        kept_rays = [rays[i] for i in keep_idx]
        kept_tight = [tight[i] | ({idx} if vals[i] == 0 else set()) for i in keep_idx]
        seen = set(kept_rays)
        for r in new_rays:
            if r in seen:
                continue
            seen.add(r)
            kept_rays.append(r)
            kept_tight.append({k for k, h in enumerate(halfspaces[: idx + 1]) if dot(h, r) == 0})
        rays = kept_rays
        tight = kept_tight

    rays_sorted = sorted(set(rays))
    return rays_sorted, [primitive(l) for l in lineality]


def holds_on_cone(objective: Vec, ineqs: list[Vec], eqs: list[Vec], dim: int) -> bool:
    """True iff objective.h >= 0 for every h in the cone."""
    return holds_on_rays(objective, *extreme_rays(ineqs, eqs, dim))


def holds_on_rays(objective: Vec, rays: list[Vec], lineality: list[Vec]) -> bool:
    """`holds_on_cone` for a cone whose `extreme_rays` are already known."""
    if any(dot(objective, l) != 0 for l in lineality):
        return False
    return all(dot(objective, r) >= 0 for r in rays)
