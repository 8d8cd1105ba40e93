"""Exact decision layer: cone membership and multiplier extraction.

`solve(ConeProblem)` is the one entry point.  It returns ProvenSTI with the
multipliers of a proof or NotProvable with a disproof ray, and checks either
answer exactly against the problem before returning it.

A candidate inequality "objective . h >= 0 for every h with Eh >= 0, Ch = 0"
(E the elemental rows, C the constraint rows) holds iff the objective lies in
the cone generated by the rows of E plus the row span of C, i.e. iff there
are multipliers lam >= 0 and nu with

    E^T lam - C^T nu = objective.

Feasibility of that system is decided by a phase-1 simplex with Bland's
pivot rule (entering: lowest eligible column index; leaving: lowest basic
column index among minimum ratios), which terminates on every input and
makes results reproducible.  When the system is infeasible the final
multiplier vector of the phase-1 objective is a Farkas witness; its negation
is a point of the cone on which the objective is strictly negative, which
certifies that the inequality is not provable this way.

The tableau holds Python ints over one common positive denominator d, the
determinant of the current basis (Edmonds 1967; Bareiss 1968).  Each column
is first scaled by the lcm of its denominators and the right-hand side by
the lcm of its own.  A pivot on p keeps the pivot row, replaces every other
entry t by (t * p - t_e * t_r) / d, a division that is always exact, and
sets d = p.  No gcd is ever taken, and entries stay the size of minors of
the integer input.  The scalings are positive, so they change no choice
Bland's rule makes: scaling column j by s_j multiplies its reduced cost by
s_j; the tableau row of basic column k and its b_i both carry 1 / s_k and
the right-hand side carries L, so the ratios b_i / a_ie of entering column e
are all multiplied by the same L / s_e; and d > 0 divides everything alike.
Signs, ratio order and the basis-index tie-break are therefore those of a
Fraction tableau of the unscaled system, and the result maps back exactly:
x_j = b_i * s_j / (d * L), and the dual multipliers need no unscaling.
The elemental columns are built as ints, +-1 at each term's two to four
subset masks and 0 elsewhere, so their scale is 1.

Support reduction.  Let S be the union of the subset masks with a nonzero
coefficient in the objective or in any constraint row: the variables the
problem uses.  When S is a proper nonempty subset of the declared universe N,
the system is built and solved over S alone (k = |S| variables, 2**k - 1
coordinates) and the answer is lifted back to N.  S-masks map to N-masks by
bit expansion: bit b of an S-mask stands for the b-th variable of S.  The
columns are the rows of enumerate_eims(k) plus -+ the constraint rows
restricted to the S-coordinates, and the right-hand side is the objective
restricted the same way.  Neither restriction loses a coefficient, because
every nonzero coordinate is a subset of S.  When S = N (or S is empty, as
for a zero objective with no constraints) the restriction and the lift are
the identity and the elemental matrix passed in is used as it is.

  * Lifting a proof.  Each S-row, its masks widened to N, is rewritten over
    the N-rows by `elemental.chain_rule_rows`.  I(X_i;X_j|X_K), K a subset of
    S - {i,j}, is already an N-row; H(X_i | S - {i}) is a sum of N-rows,

        H(X_i | S-{i}) = H(X_i | N-{i})
                         + sum_k I(X_i ; X_tk | (S-{i}) + {t1..t(k-1)}),

    with t running over N - S.  Every term is an elemental N-row with
    multiplier one, so the lifted multipliers are nonnegative and sum to the
    same vector; the constraint multipliers carry over unchanged.  Any order
    of the t is valid; descending index order is used because it reproduced
    the proofs of the unreduced solve on every benchmark problem, where
    ascending order changed two of them.
  * Lifting a ray.  A disproof ray r over S lifts to h(A) = r(A & S), with
    h(A) = 0 when A & S is empty.  The restriction of a polymatroid to S is
    a polymatroid and this h is the polymatroid r extended by variables that
    are constant (Yeung 1997, "A framework for linear information
    inequalities"); each elemental row over N takes on h the value of an
    elemental row over S, or zero.  The objective and the constraint rows
    only see subsets of S, where h equals r, so h meets every constraint and
    the objective is as negative on h as on r.

The lifted certificate or ray is checked against the full problem over N, as
an unreduced answer would be.

Everything is exact: certificates verify by coordinate equality, never by
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Sequence

from .canonical import CanonicalVector
from .constraints import ConstraintMatrix
from .elemental import ElementalMatrix, chain_rule_rows, enumerate_eims
from .errors import DimensionMismatchError
from .parser import Entropy, MutualInfo

_ZERO = Fraction(0)
_denominator = attrgetter("denominator")

# Generous cap on simplex pivots; Bland's rule terminates long before this on
# any instance this package can build.
_MAX_PIVOTS = 1_000_000


@dataclass(frozen=True)
class Certificate:
    """Multipliers with E^T lam - C^T nu = objective and lam >= 0 elementwise."""

    lam: tuple[Fraction, ...]  # one per elemental row, nonnegative
    nu: tuple[Fraction, ...]  # one per constraint row, any sign


@dataclass(frozen=True)
class ProvenSTI:
    """The inequality is a (constrained) Shannon-type inequality."""

    certificate: Certificate


@dataclass(frozen=True)
class NotProvable:
    """Not provable as a Shannon-type inequality; `ray` is the disproof direction.

    The inequality may still hold: for three or more variables the elemental
    rows describe a strict outer bound of the entropic region.
    """

    ray: CanonicalVector  # E.ray >= 0, C.ray = 0, objective.ray < 0


SolveOutcome = ProvenSTI | NotProvable


@dataclass(frozen=True)
class ConeProblem:
    """Decide whether `objective . h >= 0` on {h : Eh >= 0, Ch = 0}.

    The objective is the canonical vector of RHS minus LHS of the candidate
    inequality, so nonnegativity over the cone proves the inequality.
    """

    objective: CanonicalVector
    elemental: ElementalMatrix
    constraints: ConstraintMatrix | None = None  # None is stored as the empty matrix

    def __post_init__(self):
        if self.elemental.n != self.objective.n:
            raise DimensionMismatchError("elemental matrix built for a different universe")
        if self.constraints is None:
            object.__setattr__(self, "constraints", ConstraintMatrix(self.objective.n, ()))
        if self.constraints.n != self.objective.n:
            raise DimensionMismatchError("constraint matrix built for a different universe")


def _phase1_feasibility(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide {x >= 0 : sum_j x_j columns[j] = rhs} by phase-1 simplex.

    Returns (x, None) when feasible and (None, y) when not, with y a Farkas
    witness: y . columns[j] <= 0 for every j and y . rhs > 0.
    """
    m = len(rhs)
    nc = len(columns)
    # Integerize: column j is scaled by the lcm s_j of its denominators, the
    # right-hand side by the lcm L of its own.  Row i is negated when
    # rhs[i] < 0 so that b >= 0.
    sign = [-1 if v < 0 else 1 for v in rhs]
    scale: list[int] = []
    int_columns: list[list[int]] = []
    for col in columns:
        s = lcm(*map(_denominator, col))
        scale.append(s)
        int_columns.append([sg * v.numerator * (s // v.denominator) for sg, v in zip(sign, col)])
    big_l = lcm(*map(_denominator, rhs))
    b = [abs(v.numerator) * (big_l // v.denominator) for v in rhs]
    # Row-major tableau with the artificial identity appended.  The tableau
    # of the current basis is rows / d, and likewise b / d, cost / d and
    # obj / d; d is the determinant of the basis, positive throughout.
    rows = [list(r) for r in zip(*int_columns)]
    for i, row in enumerate(rows):
        row.extend(1 if k == i else 0 for k in range(m))
    basis = [nc + i for i in range(m)]
    d = 1

    # Reduced-cost row for "minimize the sum of artificials": every basic
    # artificial has cost 1, so subtract each constraint row from the costs;
    # the artificial entries come out 1 - 1 = 0.
    cost = [-sum(c) for c in int_columns] + [0] * m
    obj = sum(b)

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
        # Leaving row: minimum ratio b[i] / a, compared by cross-multiplying
        # (both denominators positive), ties by lowest basic column index.
        leave = -1
        best_b = best_a = 0
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                here, best = b[i] * best_a, best_b * a
                if leave < 0 or here < best or (here == best and basis[i] < basis[leave]):
                    best_b, best_a = b[i], a
                    leave = i
        if leave < 0:
            # The phase-1 objective is bounded below by zero, so an unbounded
            # direction is impossible.
            raise AssertionError("phase-1 simplex found an unbounded direction")
        # Integer-preserving pivot on (leave, enter): the pivot row stays, every
        # other row becomes (row * p - f * prow) / d, which divides exactly,
        # and p is the next common denominator.
        prow = rows[leave]
        p = prow[enter]
        bl = b[leave]
        support = [(j, q) for j, q in enumerate(prow) if q]
        for i in range(m):
            if i == leave:
                continue
            rowi = rows[i]
            f = rowi[enter]
            if f:
                _eliminate(rowi, prow, support, f, p, d)
                b[i] = (b[i] * p - f * bl) // d
            elif p != d:
                # Only rescaled; kept apart from _eliminate because these
                # rows dominate the cost of non-unit pivots at n >= 8.
                rowi[:] = [v * p // d if v else 0 for v in rowi]
                b[i] = b[i] * p // d
        f = cost[enter]
        _eliminate(cost, prow, support, f, p, d)
        obj = (obj * p + f * bl) // d
        basis[leave] = enter
        d = p
    else:
        raise AssertionError("simplex pivot limit exceeded")

    if obj == 0:
        # Undo the scalings: x_j = b_i * s_j / (d * L) for the basic column j.
        x = [_ZERO] * nc
        den = d * big_l
        for i, col in enumerate(basis):
            if col < nc:
                x[col] = Fraction(b[i] * scale[col], den)
        return x, None
    # Infeasible: multipliers from the artificial reduced costs, mapped back
    # through the row signs.  y_i = cost_of_artificial - reduced_cost.
    y = [sign[i] * Fraction(d - cost[nc + i], d) for i in range(m)]
    return None, y


def _eliminate(
    row: list[int], prow: list[int], support: list[tuple[int, int]], f: int, p: int, d: int,
) -> None:
    """row <- (row * p - f * prow) / d in place, an exact division.

    `support` lists the nonzero (j, prow[j]); when p == d only those change.
    """
    if p != d:
        row[:] = [(v * p - f * q) // d if v or q else 0 for v, q in zip(row, prow)]
    elif d == 1:
        for j, q in support:
            row[j] -= f * q
    else:
        # row * d - f * q is divisible by d, hence so is f * q.
        for j, q in support:
            row[j] -= f * q // d


def _lp_columns(
    elemental: ElementalMatrix, constraints: ConstraintMatrix | None,
) -> list[Sequence[int | Fraction]]:
    """Columns of the phase-1 system: E^T, then -C^T and C^T for nu's two parts."""
    qrows = constraints.rows if constraints is not None else ()
    columns: list[Sequence[int | Fraction]] = []
    for term in elemental.rows:
        col = [0] * ((1 << elemental.n) - 1)
        for mask, v in term.units:
            col[mask - 1] = v
        columns.append(col)
    columns += [tuple(-c for c in row.row.coeffs) for row in qrows]  # nu positive part
    columns += [row.row.coeffs for row in qrows]  # nu negative part
    return columns


def _support(target: CanonicalVector, constraints: ConstraintMatrix) -> int:
    """Union of the subset masks with a nonzero coefficient in the target or a constraint row."""
    support = 0
    for vec in (target, *(row.row for row in constraints.rows)):
        for mask, v in enumerate(vec.coeffs, 1):
            if v:
                support |= mask
    return support


def _expansions(support: int, n: int) -> list[int]:
    """The N-mask of every S-mask, S = support: bit b stands for the b-th variable of S."""
    bits = [1 << k for k in range(n) if support >> k & 1]
    expand = [0] * (1 << len(bits))
    for mask in range(1, len(expand)):
        low = mask & -mask
        expand[mask] = expand[mask ^ low] | bits[low.bit_length() - 1]
    return expand


def _restrict(vec: CanonicalVector, expand: list[int]) -> CanonicalVector:
    """The S-coordinates of a vector, in S-mask order (len(expand) = 2**|S|)."""
    coeffs = vec.coeffs
    k = len(expand).bit_length() - 1
    return CanonicalVector(k, tuple(coeffs[wide - 1] for wide in expand[1:]))


def _lift_multipliers(
    lam: Sequence[Fraction], sub: ElementalMatrix, expand: list[int], n: int, size: int,
) -> list[Fraction]:
    """Multipliers of the S-elemental rows rewritten over the N-elemental rows."""
    lifted = [_ZERO] * size
    for coeff, term in zip(lam, sub.rows):
        if not coeff:
            continue
        m = term.measure
        wide = (Entropy(expand[m.alpha], expand[m.gamma]) if isinstance(m, Entropy)
                else MutualInfo(expand[m.alpha], expand[m.beta], expand[m.gamma]))
        for row in chain_rule_rows(wide, n):
            lifted[row] += coeff
    return lifted


def _lift_ray(ray: CanonicalVector, expand: list[int], n: int) -> CanonicalVector:
    """h(A) = ray(A & S) over N, zero where A misses S."""
    support = expand[-1]
    narrow = {wide: mask for mask, wide in enumerate(expand)}
    coeffs = ray.coeffs
    return CanonicalVector(n, tuple(
        coeffs[narrow[a & support] - 1] if a & support else _ZERO for a in range(1, 1 << n)))


def solve(p: ConeProblem) -> SolveOutcome:
    """Decide the cone problem: find lam >= 0 and nu with E^T lam - C^T nu = objective.

    The zero vector always satisfies the constraints, so the minimum of the
    objective over the cone is either exactly zero (proven, with a
    certificate) or unbounded below (not provable, with a witness ray).  The
    system is solved over the variables the objective and constraints use
    and the answer lifted back (see the module docstring).
    """
    target, elemental, constraints = p.objective, p.elemental, p.constraints
    n = target.n
    qrows = constraints.rows
    support = _support(target, constraints)
    reduced = 0 < support.bit_count() < n
    if reduced:
        expand = _expansions(support, n)
        sub_target = _restrict(target, expand)
        sub_elemental = enumerate_eims(sub_target.n)
        sub_constraints = ConstraintMatrix(sub_target.n, tuple(
            replace(row, row=_restrict(row.row, expand)) for row in qrows))
    else:
        sub_target, sub_elemental, sub_constraints = target, elemental, constraints
    x, farkas = _phase1_feasibility(
        _lp_columns(sub_elemental, sub_constraints), sub_target.coeffs)
    ne = len(sub_elemental.rows)
    nq = len(qrows)
    if x is not None:
        lam = x[:ne]
        if reduced:
            lam = _lift_multipliers(lam, sub_elemental, expand, n, len(elemental.rows))
        nu = tuple(x[ne + j] - x[ne + nq + j] for j in range(nq))
        cert = Certificate(tuple(lam), nu)
        # Re-check the returned object against the original data; a failure
        # here is a solver bug, never a property of the input.
        if not verify_certificate(p, cert):
            raise AssertionError("internal error: simplex produced an invalid certificate")
        return ProvenSTI(cert)
    ray = CanonicalVector(sub_target.n, tuple(-v for v in farkas))
    if reduced:
        ray = _lift_ray(ray, expand, n)
    if not is_disproof_ray(p, ray):
        raise AssertionError("internal error: simplex produced an invalid witness")
    return NotProvable(ray)


def verify_certificate(p: ConeProblem, c: Certificate) -> bool:
    """Exact check of E^T lam - C^T nu = objective and lam >= 0. No tolerance."""
    qrows = p.constraints.rows
    if len(c.lam) != len(p.elemental.rows) or len(c.nu) != len(qrows):
        raise DimensionMismatchError(
            f"certificate sized {len(c.lam)}/{len(c.nu)} for a problem with "
            f"{len(p.elemental.rows)} elemental and {len(qrows)} constraint rows")
    if any(v < 0 for v in c.lam):
        return False
    total = [_ZERO] * len(p.objective.coeffs)
    for coeff, term in zip(c.lam, p.elemental.rows):
        if coeff:
            for mask, v in term.units:
                total[mask - 1] += coeff * v
    for coeff, row in zip(c.nu, qrows):
        if coeff:
            for mask, v in row.row.nonzero():
                total[mask - 1] -= coeff * v
    return total == list(p.objective.coeffs)


def is_disproof_ray(p: ConeProblem, ray: CanonicalVector) -> bool:
    """Exact check that `ray` witnesses NotProvable for this problem."""
    if ray.n != p.objective.n:
        raise DimensionMismatchError("ray built for a different universe")
    if p.objective.dot(ray) >= 0:
        return False
    if any(sum(v * ray.coeffs[m - 1] for m, v in t.units) < 0 for t in p.elemental.rows):
        return False
    return all(row.row.dot(ray) == 0 for row in p.constraints.rows)
