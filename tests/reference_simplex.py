"""Reference phase-1 simplex over Fractions, kept as a test oracle.

This is the dense `Fraction` tableau that `infoineq.lp._phase1_feasibility`
used before it switched to integer-preserving pivoting.  Both use Bland's
rule, so on every input they must return identical (x, y): the same basis,
the same feasible point and the same Farkas witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

_MAX_PIVOTS = 1_000_000


def phase1_feasibility(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide {x >= 0 : sum_j x_j columns[j] = rhs} by phase-1 simplex.

    Returns (x, None) when feasible and (None, y) when not, with y a Farkas
    witness: y . columns[j] <= 0 for every j and y . rhs > 0.
    """
    m = len(rhs)
    nc = len(columns)
    # Row-major tableau with artificial identity appended; rows scaled so the
    # right-hand side is nonnegative.
    sign = [1] * m
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(m):
        if rhs[i] < 0:
            sign[i] = -1
            row = [-col[i] for col in columns]
            b.append(-rhs[i])
        else:
            row = [col[i] for col in columns]
            b.append(rhs[i])
        row.extend(_ONE if k == i else _ZERO for k in range(m))
        rows.append(row)
    basis = [nc + i for i in range(m)]

    # Reduced-cost row for "minimize the sum of artificials": every basic
    # artificial has cost 1, so subtract each constraint row from the costs.
    cost = [_ZERO] * nc + [_ONE] * m
    for i in range(m):
        rowi = rows[i]
        for j in range(nc + m):
            if rowi[j]:
                cost[j] -= rowi[j]
    obj = sum(b, _ZERO)

    for _ in range(_MAX_PIVOTS):
        if obj == 0:
            break
        # Entering column: lowest index with negative reduced cost.  Artificial
        # columns never re-enter; their reduced costs are still maintained
        # because the Farkas witness is read off them at the end.
        enter = -1
        for j in range(nc):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Leaving row: minimum ratio, ties by lowest basic column index.
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # The phase-1 objective is bounded below by zero, so an unbounded
            # direction is impossible.
            raise AssertionError("phase-1 simplex found an unbounded direction")
        # Pivot on (leave, enter).
        prow = rows[leave]
        piv = prow[enter]
        if piv != 1:
            inv = _ONE / piv
            rows[leave] = prow = [v * inv for v in prow]
            b[leave] *= inv
        for i in range(m):
            if i == leave:
                continue
            f = rows[i][enter]
            if f:
                rowi = rows[i]
                rows[i] = [v - f * p for v, p in zip(rowi, prow)]
                b[i] -= f * b[leave]
        f = cost[enter]
        if f:
            cost = [v - f * p for v, p in zip(cost, prow)]
            obj += f * b[leave]
        basis[leave] = enter
    else:
        raise AssertionError("simplex pivot limit exceeded")

    if obj == 0:
        x = [_ZERO] * nc
        for i, col in enumerate(basis):
            if col < nc:
                x[col] = b[i]
        return x, None
    # Infeasible: multipliers from the artificial reduced costs, mapped back
    # through the row scaling.  y_i = cost_of_artificial - reduced_cost.
    y = [sign[i] * (_ONE - cost[nc + i]) for i in range(m)]
    return None, y
