"""Bounded-variable simplex with warm re-optimization after added rows.

A numpy float64 two-phase revised simplex (Dantzig pricing first, Bland
afterwards, with a cycling guard) solves, and an exact solve proves its
verdict in exact arithmetic or raises.

The float path keeps the explicit basis inverse B^-1, m x m, beside the
program's matrix A, never the m x N tableau B^-1 A: a pivot reads tableau row
r as B^-1_r A and the entering column as B^-1 A_j, and updates only the
inverse. It re-optimizes from a prior basis after rows are added or bounds
fixed: nonbasic variables return to the bound they held, a bounded dual
simplex restores primal feasibility while the reduced costs stay dual
feasible, and the primal simplex finishes. The dual simplex picks its leaving
row by dual steepest edge, with the exact weights ||e_r^T B^-1||^2 read off
the kept inverse. The state keeps the basic variables' bounds, which each
pivot updates in the entering row, and the dual ratio test keeps a +-1 sign
per column for the bound it sits at, so no pivot gathers either again. A
basis that is not dual feasible, or a dual ratio test with no entering
column, falls back to the cold two-phase solve, so only phase 1 declares a
program infeasible.

A float solve's Basis keeps its final inverse over the program's rows, and
a warm float solve starts only from it: for a program whose first rows are
those very Row objects and whose appended rows all have slacks, k appended
rows a with slack coefficients s add the rows [-diag(1/s) a_B B^-1,
diag(1/s)], in O(k m^2), and bound or cost changes only move the
nonbasic values and the reduced costs. The float path never inverts a
basis from scratch: any other warm basis, one with a basic artificial
included, solves cold. The pivots update the reduced costs instead of
pricing every column again. Every optimum is checked against the original
matrix: its basic values x_B = B^-1 (b - A_N x_N) and duals y = c_B B^-1 are
computed through the inverse in O(m^2), each refined once against A_B; the
rows must hold, |c_B - y A_B| must stay within FEAS_TOL of the size of the
terms it sums, and y must price no free nonbasic column in. A warm solve
that fails a check solves cold; a cold solve that fails one raises. An
artificial left basic at 0 by a redundant row stays in the kept inverse as
the unit column +e_r, fixed to [0, 0]; an infeasible verdict carries phase
1's duals as its Farkas certificate.

An exact solve is the float solve, warm from the basis offered or cold,
followed by an exact check of its verdict (Applegate, Cook, Dash & Espinoza
2007). _ExactCheck.check reads x_B and y through the kept inverse with
iterative refinement (Gleixner, Steffy & Wolter 2016) and proves the optimum
optimal in Fractions; _ExactCheck.farkas proves infeasibility from the
certificate. A check that fails, a float solve that raises and an unbounded
verdict all raise LpError: an exact result is always certified.

A program's lifecycle is: build it, append rows (with_rows), change any
number of bounds in one step (with_bounds) or the cost (with_cost), and
re-optimize warm. Every number is a float64, checked once on the way in: a
value float64 cannot hold exactly raises instead of being rounded, so the
exact path reads each as the rational the float path reads. Costs and bounds
are vectors, a Row keeps its relation, right-hand side and origin key
(lp.keys collects the keys), and the coefficients live only in lp.matrix, a
read-only view of the standard form the float path and the exact check
read; each row set enters with one block, len(rows) x num_vars. The copies
with_bounds and with_cost make share the form and the keys, so a fixing or a
branch re-solves without converting any row again, and check only what they
change.

The float loops run on arrays of a few dozen rows, where a numpy call costs
more than its arithmetic, so they bind the state's arrays once per loop and
make as few calls per pivot as they can without changing a decision: the
same pivots, values and inverses as the plain formulas.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OBJ_TOL = 1e-6
# The exact check refines x_B and y through the float inverse REFINE_ROUNDS
# times, each round gaining about 40 bits: the error ends far below 2**-160,
# which recovers any denominator up to 2**80 (the largest seen is 3.8e7, n = 28)
REFINE_ROUNDS = 4
CHECK_DENOMINATOR = 2**80
# a float Farkas certificate is rounded to this denominator before its check
FARKAS_DENOMINATOR = 2**40


class LpError(RuntimeError):
    """Solver failure (cycling guard, inconsistent input, numerical trouble)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class Row:
    """A constraint's relation and right-hand side, a finite float64 (a value
    float64 cannot hold exactly raises); its coefficients are its row of the
    program's matrix. key names the row's origin, or is None (see
    LinearProgram.keys). Rows compare by identity, not by key: a kept basis
    inverse belongs to the very rows it was computed for."""

    rel: str  # "<=", "=" or ">="
    rhs: float
    key: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if self.rel not in ("<=", "=", ">="):
            raise LpError(f"bad relation {self.rel!r}")
        rhs = _float64(self.rhs)
        if rhs is None or not math.isfinite(rhs):
            raise LpError(f"right-hand side {self.rhs} has no finite float64 value")
        object.__setattr__(self, "rhs", rhs)


class _StandardForm:
    """A program's rows as the float path and the exact check read them,
    read-only: A is the coefficient matrix with one slack column per
    inequality after the variables, numbered in row order (+1 in a <= row,
    -1 in a >= row), slack_of_row each row's slack column or -1, b the
    right-hand sides, and le and ge mark the <= and >= rows. blocks hold the
    coefficients of consecutive rows and are copied into A one by one, never
    stacked first."""

    def __init__(self, rows: tuple[Row, ...], blocks: Sequence[np.ndarray]) -> None:
        m, n = len(rows), blocks[0].shape[1]
        self.le = np.array([row.rel == "<=" for row in rows], dtype=bool)
        self.ge = np.array([row.rel == ">=" for row in rows], dtype=bool)
        slack_rows = (self.le | self.ge).nonzero()[0]
        self.N = n + len(slack_rows)
        self.A = np.zeros((m, self.N))
        i = 0
        for block in blocks:
            self.A[i : i + len(block), :n] = block
            i += len(block)
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = n + np.arange(len(slack_rows))
        self.A[slack_rows, self.slack_of_row[slack_rows]] = np.where(self.le[slack_rows], 1.0, -1.0)
        self.b = np.array([row.rhs for row in rows], dtype=float)
        for array in (self.le, self.ge, self.A, self.slack_of_row, self.b):
            array.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimization LP over bounded variables; immutable, compared by identity.

    cost, lo and hi are read-only float64 vectors of num_vars values
    (_vector); a cost or lower bound must be finite, and lo <= hi (_bounds).
    matrix holds the rows' coefficients as one float64 block, len(rows) x
    num_vars, which may be None only when there are no rows; it is checked
    (_coefficients) and copied into form, the rows in the standard form the
    float path and the exact check read (_StandardForm), and matrix is then
    the form's read-only view form.A[:, :num_vars]. keys is the frozenset of
    the rows' keys that are not None, built with the row set too.
    """

    num_vars: int
    cost: np.ndarray
    rows: tuple[Row, ...]
    lo: np.ndarray
    hi: np.ndarray
    matrix: Optional[np.ndarray] = field(default=None, repr=False)
    form: _StandardForm = field(init=False, repr=False)
    keys: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.num_vars
        lo, hi = _bounds(self.lo, self.hi, np.arange(n))
        form = _StandardForm(self.rows, (_coefficients(self.rows, n, self.matrix),))
        cost, keys = _vector(self.cost, n, "cost"), _row_keys(frozenset(), self.rows)
        vars(self).update(cost=cost, lo=lo, hi=hi, form=form, matrix=form.A[:, :n], keys=keys)

    def _copy(self, **changes) -> "LinearProgram":
        """A copy with these fields replaced, which the caller has checked."""
        lp = copy.copy(self)
        vars(lp).update(changes)
        return lp

    def with_rows(
        self, new_rows: Sequence[Row], matrix: Optional[np.ndarray] = None
    ) -> "LinearProgram":
        """These rows appended, with their coefficients matrix, a float64
        block len(new_rows) x num_vars copied as it is; the program itself
        when there are none."""
        new_rows = tuple(new_rows)
        matrix = _coefficients(new_rows, self.num_vars, matrix)
        if not new_rows:
            return self
        rows = self.rows + new_rows
        form = _StandardForm(rows, (self.matrix, matrix))
        return self._copy(
            rows=rows,
            form=form,
            matrix=form.A[:, : self.num_vars],
            keys=_row_keys(self.keys, new_rows),
        )

    def with_bounds(self, bounds: Mapping[int, tuple[float, float]]) -> "LinearProgram":
        """A copy with each var's bounds set to (lo, hi), in one step; checks
        only these bounds. The program itself when there are none."""
        if not bounds:
            return self
        out = [var for var in bounds if not 0 <= var < self.num_vars]
        if out:
            raise LpError(f"variable {out[0]} out of range")
        var = np.array(list(bounds), dtype=np.intp)
        new_lo, new_hi = _bounds(*zip(*bounds.values()), var)
        lo, hi = self.lo.copy(), self.hi.copy()
        lo[var], hi[var] = new_lo, new_hi
        lo.flags.writeable = hi.flags.writeable = False
        return self._copy(lo=lo, hi=hi)

    def with_cost(self, cost: Sequence[float]) -> "LinearProgram":
        """A copy minimizing cost, one value per variable; checks only it."""
        return self._copy(cost=_vector(cost, self.num_vars, "cost"))


def _row_keys(keys: frozenset, rows: Iterable[Row]) -> frozenset:
    """keys and the rows' keys that are not None."""
    return keys.union(row.key for row in rows if row.key is not None)


def _float64(value) -> Optional[float]:
    """value as a float when float64 holds it exactly (NaN it does not), else None."""
    value = value.item() if isinstance(value, np.generic) else value
    try:
        return float(value) if float(value) == value else None
    except (OverflowError, TypeError, ValueError):
        return None


def _vector(values, size: int, what: str, finite: bool = True) -> np.ndarray:
    """values as a new read-only float64 vector of size values, each held
    exactly (_float64) and, unless finite is False, finite."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        values = list(values)
        held = list(map(_float64, values))
        if None in held:
            raise LpError(f"{what}: {values[held.index(None)]} has no exact float64 value")
        values = held
    vector = np.array(values, dtype=np.float64)
    if vector.shape != (size,):
        raise LpError(f"{what} must have {size} values, one per variable")
    if not np.isfinite(vector).all() and (finite or np.isnan(vector).any()):
        raise LpError(f"{what} must be finite" if finite else f"{what} must not be nan")
    vector.flags.writeable = False
    return vector


def _bounds(lo, hi, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds lo and hi of the variables var lists, as vectors (_vector);
    lo must be finite and at most hi, which may be +inf."""
    lo = _vector(lo, len(var), "lower bounds")
    hi = _vector(hi, len(var), "upper bounds", finite=False)
    if (lo > hi).any():
        i = int((lo > hi).argmax())
        raise LpError(f"variable {var[i]}: lo {lo[i]} > hi {hi[i]}")
    return lo, hi


def _coefficients(
    rows: Sequence[Row], num_vars: int, block: Optional[np.ndarray]
) -> np.ndarray:
    """block, the rows' coefficients, once it is a float64 array of one row
    per Row and one column per variable, every value finite; None stands for
    the empty block of no rows."""
    if block is None:
        if rows:
            raise LpError("rows need their coefficient block")
        return np.zeros((0, num_vars))
    if not isinstance(block, np.ndarray) or block.dtype != np.float64:
        raise LpError("coefficient block is not float64")
    if block.shape != (len(rows), num_vars):
        raise LpError("coefficient block does not match the rows")
    if not np.isfinite(block).all():
        raise LpError("coefficient block is not finite")
    return block


def make_lp(
    num_vars: int,
    cost: Mapping[int, float] = {},
    rows: Sequence[Row] = (),
    matrix: Optional[np.ndarray] = None,
    bounds: Optional[Sequence[tuple[float, float]]] = None,
) -> LinearProgram:
    """The program minimizing cost, a {variable: value} mapping (0 for the
    variables it leaves out), over these rows and their float64 coefficient
    block matrix; bounds are (lo, hi) pairs, [0, +inf) by default. The one
    place that turns a mapping and pairs into vectors."""
    out = [var for var in cost if not 0 <= var < num_vars]
    if out:
        raise LpError(f"cost index {out[0]} out of range")
    vector = [cost.get(var, 0.0) for var in range(num_vars)]
    bounds = [(0.0, math.inf)] * num_vars if bounds is None else bounds
    lo, hi = [pair[0] for pair in bounds], [pair[1] for pair in bounds]
    return LinearProgram(num_vars, vector, tuple(rows), lo, hi, matrix)


@dataclass(frozen=True)
class Basis:
    """The basic variable of each row and the nonbasic variables held at their
    upper bound. Slacks are numbered after the program's variables in row
    order; -1 marks a row whose artificial stayed basic, at 0, because the
    row is redundant.

    An optimal float solve keeps its final inverse: rows are the program's
    rows and Binv is B^-1, m x m (0 x 0 without rows), for the basic columns
    in row order, read-only, so copies of a Basis share it. A kept artificial
    counts as the unit column +e_r, fixed to [0, 0]. Both are left out of ==
    and repr. A warm float solve extends the inverse when the program's
    first rows are these very Row objects (with_rows keeps them), every
    appended row has a slack and no artificial is basic; otherwise the float
    solve starts cold. The exact check reads x_B and y through it."""

    basic: tuple[int, ...]
    at_upper: frozenset[int] = frozenset()
    rows: tuple[Row, ...] = field(default=(), compare=False, repr=False)
    Binv: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


NO_BASIS = Basis(())


@dataclass
class LpResult:
    """A solve's outcome. warm_started: the optimum was reached from the
    prior basis's kept inverse, with or without dual pivots. pivots counts
    the basis changes of every phase, a discarded warm attempt's too. An
    exact result has the float solve's warm_started and pivots. farkas is an
    INFEASIBLE result's certificate, one multiplier y per row (phase 1's
    duals): over the bounds, max y A x < y b or min y A x > y b, so no x
    fits the rows; Fractions that passed that test on the exact path."""

    status: LpStatus
    objective_value: Union[float, Fraction, None]
    primal: list
    basis: Basis
    warm_started: bool = False
    pivots: int = 0
    farkas: Optional[list] = None


def lp_solve(
    lp: LinearProgram,
    warm_basis: Optional[Basis] = None,
    *,
    exact: bool = False,
) -> LpResult:
    """Solve to proven optimality, or report Infeasible/Unbounded.

    warm_basis is the basis of an earlier solve of this program before rows
    were appended or bounds changed. exact=True proves the float verdict in
    exact arithmetic, float coefficients read exactly: an optimum by its
    basis, as Fractions, and infeasibility by its Farkas certificate. It
    raises LpError when the float solve does, when the check fails, and on
    an unbounded program, so an exact result is always certified.
    """
    result = _FloatSimplex(lp).solve(warm_basis)
    if not exact:
        return result
    if result.status is LpStatus.UNBOUNDED:
        raise LpError("unbounded program: exact mode certifies only an optimum or infeasibility")
    check = _ExactCheck(lp)
    if result.status is LpStatus.INFEASIBLE:
        certified = check.farkas(result.farkas)
    else:
        certified = check.check(result.basis)
    if certified is None:
        raise LpError(f"exact check failed to certify the float {result.status.value} verdict")
    certified.warm_started, certified.pivots = result.warm_started, result.pivots
    return certified


# ---------------------------------------------------------------------------
# float path


@dataclass
class _State:
    Binv: np.ndarray       # m x m inverse of the basis columns of A
    A: np.ndarray          # m x width constraint matrix, artificial columns included
    basis: np.ndarray      # m basic variable indices
    xB: np.ndarray         # m basic values
    at_upper: np.ndarray   # width nonbasic-at-upper flags
    lo: np.ndarray         # width lower bounds
    hi: np.ndarray         # width upper bounds (inf allowed)
    # lo[basis] and hi[basis], gathered here and kept current by each pivot
    lo_B: np.ndarray = field(init=False)
    hi_B: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.lo_B = self.lo[self.basis]
        self.hi_B = self.hi[self.basis]

    @property
    def width(self) -> int:
        return self.A.shape[1]

    def row(self, r: int) -> np.ndarray:
        """Row r of the tableau B^-1 A."""
        return self.Binv[r] @ self.A

    def column(self, j: int) -> np.ndarray:
        """Column j of the tableau B^-1 A."""
        return self.Binv @ self.A[:, j]

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """cost - y A for the duals y = c_B B^-1."""
        return cost - (cost[self.basis] @ self.Binv) @ self.A


class _FloatSimplex:
    def __init__(self, lp: LinearProgram) -> None:
        n = self.n = lp.num_vars
        m = self.m = len(lp.rows)
        self.rows = lp.rows
        form = lp.form
        self.le, self.ge, self.slack_of_row = form.le, form.ge, form.slack_of_row
        self.A, self.b = form.A, form.b
        N = self.N = form.N
        self.lo = np.concatenate([lp.lo, np.zeros(N - n)])
        self.hi = np.concatenate([lp.hi, np.full(N - n, np.inf)])
        self.cost = np.concatenate([lp.cost, np.zeros(N - n)])
        size = m + N
        self.dantzig_limit = 500 + 5 * size
        self.iter_cap = self.dantzig_limit + 5000 + 100 * size
        self.pivots = 0

    def solve(self, warm_basis: Optional[Basis]) -> LpResult:
        result = None
        if warm_basis is not None and self.m > 0:
            state = self._kept_state(warm_basis)
            if state is not None:
                try:
                    result = self._warm(state)
                except LpError:
                    # the optimum reached from the kept inverse failed a check
                    # against the original matrix: drift or a damaged inverse
                    pass
        warm_started = result is not None
        if result is None:
            result = self._cold()
        result.warm_started = warm_started
        result.pivots = self.pivots
        return result

    def _warm(self, state: _State) -> Optional[LpResult]:
        if not self._dual_loop(state):
            return None
        status = self._loop(state, phase1=False)
        if status == "cycled":
            return None
        return self._finish(state, status)

    def _kept_state(self, warm: Basis) -> Optional[_State]:
        """warm's kept inverse extended by the appended rows, each of whose
        slacks joins the basis, in O(k m^2) for k rows; None unless this
        program's first rows are the inverse's very rows, every appended row
        has a slack and the columns form a basis of this program."""
        if warm.Binv is None:
            return None
        m0 = len(warm.rows)
        new_slacks = self.slack_of_row[m0:]
        if (
            m0 > self.m
            or len(warm.basic) != m0
            or warm.Binv.shape != (m0, m0)
            or (new_slacks < 0).any()
            or not all(map(operator.is_, warm.rows, self.rows))
        ):
            return None
        columns = list(warm.basic) + new_slacks.tolist()
        at_upper = warm.at_upper
        if (
            len(set(columns)) != self.m
            or min(columns) < 0
            or max(columns) >= self.N
            or (at_upper and (min(at_upper) < 0 or max(at_upper) >= self.N))
        ):
            return None
        basis = np.array(columns, dtype=int)
        Binv = np.zeros((self.m, self.m))
        Binv[:m0, :m0] = warm.Binv
        if m0 < self.m:
            # the basis gains each new row's slack: B = [[B0, 0], [a_B, S]]
            # with S the slack coefficients, so its inverse has the rows
            # [-S^-1 a_B B0^-1, S^-1] below B0^-1
            A_new = self.A[m0:]
            coef = A_new[np.arange(len(new_slacks)), new_slacks]
            Binv[m0:, :m0] = -(A_new[:, basis[:m0]] @ warm.Binv) / coef[:, None]
            Binv[m0:, m0:] = np.diag(1.0 / coef)
        return self._start(warm, basis, Binv)

    def _start(self, warm: Basis, basis: np.ndarray, Binv: np.ndarray) -> _State:
        """The state on basis inverse Binv with the nonbasic variables at the
        bounds warm records and x_B = B^-1 (b - A x_N)."""
        at_upper = np.zeros(self.N, dtype=bool)
        at_upper[list(warm.at_upper)] = True
        at_upper &= np.isfinite(self.hi)
        at_upper[basis] = False
        xN = np.where(at_upper, self.hi, self.lo)
        xN[basis] = 0.0
        xB = Binv @ (self.b - self.A @ xN)
        return _State(Binv, self.A, basis, xB, at_upper, self.lo.copy(), self.hi.copy())

    def _dual_loop(self, state: _State) -> bool:
        """Bounded dual simplex until every basic value fits its bounds.

        The leaving row is chosen by dual steepest edge (_leaving_row); the
        entering column minimizes |d_j| / |alpha_rj| over the nonbasic
        columns that move the leaving value toward its bound, ties to the
        largest |alpha_rj| and then the lowest index. Returns False when the
        basis is not dual feasible, no column can enter or the iteration cap
        trips; the caller then solves cold.
        """
        lo, hi, at_upper, basis = state.lo, state.hi, state.at_upper, state.basis
        xB, lo_B, hi_B, Binv, A = state.xB, state.lo_B, state.hi_B, state.Binv, state.A
        movable = (hi - lo) > 0
        free = movable.copy()  # nonbasic and movable; each pivot swaps two entries
        free[basis] = False
        # -1 at upper, +1 otherwise: the direction a nonbasic column can move
        sign = np.where(at_upper, -1.0, 1.0)
        z = state.reduced_costs(self.cost)
        for it in range(self.dantzig_limit):
            r = self._leaving_row(state)
            if r < 0:
                return True
            # dual slack: how far each reduced cost is from pricing its column in
            slack = sign * z
            if it == 0 and (free & (slack < -FEAS_TOL)).any():
                return False
            rises = bool(xB[r] < lo_B[r])
            alpha = Binv[r] @ A
            # the leaving value rises when below its bound; column j moves it by
            # -alpha_rj per unit, up from a lower bound or down from an upper
            # one, so it moves toward the bound when t_j = +-sign_j alpha_rj < 0,
            # and then |alpha_rj| = -t_j
            t = sign * alpha
            if not rises:
                np.negative(t, out=t)
            elig = (free & (t < -PIVOT_TOL)).nonzero()[0]
            if not len(elig):
                return False
            size = -t[elig]
            ratios = np.maximum(slack[elig], 0.0) / size
            best = float(ratios.min())
            tied = ratios <= best + 1e-12 + 1e-9 * best
            q = int(elig[tied][size[tied].argmax()])
            target = lo_B[r] if rises else hi_B[r]
            step = (xB[r] - target) / alpha[q]
            entering_value = (hi[q] if at_upper[q] else lo[q]) + step
            d = Binv @ A[:, q]
            xB -= step * d
            leaving = int(basis[r])
            at_upper[leaving] = not rises
            sign[leaving], sign[q] = (1.0 if rises else -1.0), 1.0
            free[leaving], free[q] = movable[leaving], False
            self._pivot(state, r, q, d)
            z -= (z[q] / alpha[q]) * alpha
            xB[r] = entering_value
        return False

    @staticmethod
    def _leaving_row(state: _State) -> int:
        """The dual steepest-edge row: among the rows whose basic value
        breaks a bound by more than FEAS_TOL, the one with the largest
        violation^2 / ||e_r^T B^-1||^2, ties to the lowest row; -1 when no row
        does. The weights are exact norms of rows of the kept inverse, O(m^2)."""
        xB = state.xB
        viol = np.maximum(state.lo_B - xB, xB - state.hi_B)
        rows = (viol > FEAS_TOL).nonzero()[0]
        if not len(rows):
            return -1
        Binv = state.Binv[rows]
        weights = np.einsum("ij,ij->i", Binv, Binv)
        return int(rows[(viol[rows] ** 2 / weights).argmax()])

    def _cold(self) -> LpResult:
        m, N, A = self.m, self.N, self.A
        resid = self.b - A @ self.lo
        # a row keeps its slack basic when the slack's value resid / coef is
        # not negative; every other row gets an artificial of resid's sign
        rows = np.arange(m)
        has_slack = self.slack_of_row >= 0
        slack_coef = np.zeros(m)
        slack_coef[has_slack] = A[rows[has_slack], self.slack_of_row[has_slack]]
        own = has_slack & (resid * slack_coef >= 0)
        basis = np.where(own, self.slack_of_row, -1)
        art_rows = (~own).nonzero()[0]
        num_art = len(art_rows)
        art_cols = N + np.arange(num_art)

        A_ext = np.hstack([A, np.zeros((m, num_art))]) if num_art else A
        if num_art:
            A_ext[art_rows, art_cols] = np.where(resid[art_rows] >= 0, 1.0, -1.0)
            basis[art_rows] = art_cols

        # every basic column is a slack or an artificial, +-1 in its own row
        diag = A_ext[rows, basis]
        Binv = np.diag(1.0 / diag)
        xB = np.where(basis >= N, np.abs(resid), resid * diag)

        lo_ext = np.concatenate([self.lo, np.zeros(num_art)])
        hi_ext = np.concatenate([self.hi, np.full(num_art, np.inf)])
        state = _State(Binv, A_ext, basis, xB, np.zeros(N + num_art, dtype=bool), lo_ext, hi_ext)

        if num_art:
            status = self._loop(state, phase1=True)
            if status == "cycled":
                raise LpError("cycling guard tripped")
            if status == "unbounded":
                raise LpError("phase 1 became unbounded; inconsistent state")
            artificial = state.basis >= N
            phase1_obj = float(state.xB[artificial].sum())
            if phase1_obj > FEAS_TOL * max(1.0, float(np.abs(self.b).sum())):
                # phase 1's duals c_B B^-1 certify that no x fits the rows
                farkas = (artificial @ state.Binv).tolist()
                return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS, farkas=farkas)
            self._drive_out_artificials(state)
            state.hi[N:] = 0.0
            state.hi_B = state.hi[state.basis]

        status = self._loop(state, phase1=False)
        if status == "cycled":
            raise LpError("cycling guard tripped")
        return self._finish(state, status)

    def _drive_out_artificials(self, state: _State) -> None:
        N = self.N
        basic = set(state.basis.tolist())
        # a pivot in row r changes only row r's basic variable
        for r in (state.basis >= N).nonzero()[0].tolist():
            row = state.row(r)[:N]
            pivot_col = -1
            for j in (np.abs(row) > PIVOT_TOL).nonzero()[0].tolist():
                if j not in basic:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant row; artificial stays basic, pinned at zero
            basic.discard(int(state.basis[r]))
            entering_value = (
                state.hi[pivot_col] if state.at_upper[pivot_col] else state.lo[pivot_col]
            )
            self._pivot(state, r, pivot_col, state.column(pivot_col))
            state.xB[r] = entering_value
            basic.add(pivot_col)

    def _pivot(self, state: _State, r: int, j: int, d: np.ndarray) -> None:
        """Column j enters in row r; d is its tableau column B^-1 A_j. The
        inverse is updated in place: row r is divided by d_r, and d times it
        is subtracted from every other row. Row r's basic bounds become j's."""
        self.pivots += 1
        Binv = state.Binv
        Binv[r] /= d[r]
        d = d.copy()
        d[r] = 0.0
        Binv -= d[:, None] * Binv[r]
        state.basis[r] = j
        state.lo_B[r] = state.lo[j]
        state.hi_B[r] = state.hi[j]
        state.at_upper[j] = False

    def _loop(self, state: _State, phase1: bool) -> str:
        N, m = self.N, self.m
        cost = np.zeros(state.width)
        if phase1:
            cost[N:] = 1.0
        else:
            cost[:N] = self.cost
        lo, hi, at_upper, basis = state.lo, state.hi, state.at_upper, state.basis
        xB, lo_B, hi_B, Binv, A = state.xB, state.lo_B, state.hi_B, state.Binv, state.A
        # nonbasic structural or slack columns that can move; artificials
        # never re-enter, and each pivot swaps two entries
        enterable = (hi - lo) > 0
        enterable[N:] = False
        free = enterable.copy()
        free[basis] = False
        # priced once; each pivot updates them with the pivot row
        z = state.reduced_costs(cost)

        iters = 0
        # the ratio test divides every row and keeps the quotients of the
        # rows whose entry passes PIVOT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                iters += 1
                if iters > self.iter_cap:
                    return "cycled"
                elig = free & np.where(at_upper, z > PIVOT_TOL, z < -PIVOT_TOL)
                if not elig.any():
                    return "optimal"
                dantzig = iters <= self.dantzig_limit
                if dantzig:
                    j = int(np.where(elig, np.abs(z), -1.0).argmax())
                else:
                    j = int(elig.argmax())  # the first eligible column

                sigma = -1.0 if at_upper[j] else 1.0
                d = Binv @ A[:, j]
                delta = -sigma * d
                t_rows = np.where(
                    delta > PIVOT_TOL,
                    (hi_B - xB) / delta,
                    np.where(delta < -PIVOT_TOL, (xB - lo_B) / -delta, np.inf),
                )
                t_rows = np.maximum(t_rows, 0.0)
                t_flip = hi[j] - lo[j]
                row_min = float(t_rows.min()) if m else math.inf
                t_star = min(row_min, t_flip)
                if not math.isfinite(t_star):
                    return "unbounded"
                xB -= sigma * t_star * d
                if t_flip <= row_min:
                    at_upper[j] = not at_upper[j]
                    continue
                close = (t_rows <= t_star + 1e-12 + 1e-9 * t_star).nonzero()[0]
                if len(close) == 1:
                    r = int(close[0])
                elif dantzig:
                    # largest pivot among tied rows keeps the basis well
                    # conditioned; Bland's lowest basis index below
                    # guarantees termination
                    r = int(min(close, key=lambda i: (-abs(delta[i]), basis[i])))
                else:
                    r = int(min(close, key=lambda i: basis[i]))
                entering_value = (hi[j] if at_upper[j] else lo[j]) + sigma * t_star
                leaving = int(basis[r])
                at_upper[leaving] = bool(delta[r] > 0) and math.isfinite(hi[leaving])
                free[leaving], free[j] = enterable[leaving], False
                alpha = Binv[r] @ A
                self._pivot(state, r, j, d)
                z -= (z[j] / alpha[j]) * alpha
                xB[r] = entering_value

    def _finish(self, state: _State, status: str) -> LpResult:
        """The optimum's result, checked against the original matrix. The
        basic values x_B = B^-1 (b - A_N x_N) and the duals y = c_B B^-1 are
        computed through the kept inverse, each with one step of iterative
        refinement against A_B; the rows must hold at the optimum,
        |c_B - y A_B| must stay within FEAS_TOL times
        max(1, |c_B| + |y| |A_B|), and y must price no free nonbasic column
        in. The result keeps the inverse, read-only. An artificial still
        basic in row r, fixed to [0, 0], becomes the unit column +e_r: row r
        of B^-1 changes sign where its coefficient was -1."""
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, None, [], NO_BASIS)
        n, N, A, b = self.n, self.N, self.A, self.b
        at_upper, basis, Binv = state.at_upper, state.basis, state.Binv
        arts = (basis >= N).nonzero()[0]
        Binv[arts] *= state.A[arts, basis[arts]][:, None]
        A_B = state.A[:, basis]
        A_B[arts, arts] = 1.0  # an artificial's only nonzero is in its own row
        cost = np.zeros(state.width)
        cost[:N] = self.cost
        c_B = cost[basis]
        x = np.where(at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0), state.lo)
        x[basis] = 0.0
        rhs = b - A @ x[:N]
        xB = Binv @ rhs
        x[basis] = xB + Binv @ (rhs - A_B @ xB)
        y = c_B @ Binv
        y += (c_B - y @ A_B) @ Binv
        primal = np.clip(x[:n], self.lo[:n], self.hi[:n])
        activities = A[:, :n] @ primal
        tol = 10 * FEAS_TOL * np.maximum(1.0, np.abs(b))
        violated = np.where(
            self.le,
            activities > b + tol,
            np.where(self.ge, activities < b - tol, np.abs(activities - b) > tol),
        )
        if violated.any():
            i = int(violated.argmax())
            act, rhs = float(activities[i]), float(b[i])
            sign = ">" if self.le[i] else "<" if self.ge[i] else "!="
            raise LpError(f"row {i} violated at optimum: {act} {sign} {rhs}")
        # c_B - y A_B, against the size of the terms its float sum adds
        residual = np.abs(c_B - y @ A_B)
        scale = np.abs(c_B) + np.abs(y) @ np.abs(A_B)
        if not (residual <= FEAS_TOL * np.maximum(1.0, scale)).all():
            raise LpError(f"basis residual {float(residual.max())} at optimum")
        d = self.cost - y @ A
        free = self.hi > self.lo
        free[basis[basis < N]] = False
        priced_in = free & np.where(at_upper[:N], d > FEAS_TOL, d < -FEAS_TOL)
        if priced_in.any():
            j = int(priced_in.argmax())
            raise LpError(f"column {j} prices in at optimum: reduced cost {float(d[j])}")
        obj = float(self.cost[:n] @ primal)
        Binv.flags.writeable = False
        basis_out = Basis(
            tuple(np.where(basis < N, basis, -1).tolist()),
            frozenset(at_upper[:N].nonzero()[0].tolist()),
            self.rows,
            Binv,
        )
        return LpResult(LpStatus.OPTIMAL, obj, primal.tolist(), basis_out)


# ---------------------------------------------------------------------------
# exact path


class _ExactCheck:
    """Proves a float verdict in exact rationals: an optimum by its basis
    (check), infeasibility by a Farkas certificate (farkas)."""

    def __init__(self, lp: LinearProgram) -> None:
        n = self.n = lp.num_vars
        form = lp.form
        N = self.N = form.N
        num_slacks = N - n
        # each row's nonzero coefficients in column order, slack included,
        # each float64 converted exactly
        self.terms: list[list[tuple[int, Fraction]]] = [[] for _ in lp.rows]
        rows_i, cols_j = form.A.nonzero()
        for i, j, coef in zip(rows_i.tolist(), cols_j.tolist(), form.A[rows_i, cols_j].tolist()):
            self.terms[i].append((j, Fraction(coef)))
        # every number is a float64, read exactly; None is an infinite bound
        self.b = list(map(Fraction, form.b.tolist()))
        self.lo: list[Fraction] = list(map(Fraction, lp.lo.tolist())) + [Fraction(0)] * num_slacks
        self.hi: list[Optional[Fraction]] = [
            None if math.isinf(v) else Fraction(v) for v in lp.hi.tolist()
        ] + [None] * num_slacks
        self.cost = list(map(Fraction, lp.cost.tolist())) + [Fraction(0)] * num_slacks

    def _reduced_costs(self, y: list, columns: Sequence[int]) -> list:
        """(c - y A)_columns; a column -1 in place r is row r's kept
        artificial, the unit column +e_r at cost 0."""
        d = {j: self.cost[j] for j in columns if j >= 0}
        for yi, row in zip(y, self.terms):
            if yi:
                for j, a in row:
                    if j in d:
                        d[j] -= yi * a
        return [d[j] if j >= 0 else -y[r] for r, j in enumerate(columns)]

    def check(self, basis: Basis) -> Optional[LpResult]:
        """The solution on basis, a float optimum's, if exact arithmetic
        proves it optimal, else None: x_B and y solve B x_B = b - A_N x_N and
        y B = c_B exactly (_refined), x fits every bound, slacks included, a
        kept artificial is 0, and each movable nonbasic column's reduced cost
        has its bound's sign. Fixing the kept artificials to 0 leaves the
        program's feasible set as it was, so x is the program's optimum."""
        N, Binv, cols = self.N, basis.Binv, list(basis.basic)
        lo, hi = self.lo, self.hi
        at_upper = [j in basis.at_upper and hi[j] is not None for j in range(N)]
        x = [hi[j] if at_upper[j] else lo[j] for j in range(N)]

        def rows_residual(xB: list) -> list:  # b - A x, artificials included, x_B put into x
            for j, v in zip(cols, xB):
                if j >= 0:
                    x[j] = v
            return [
                b - sum((a * x[j] for j, a in row if x[j]), Fraction(0)) - (v if j < 0 else 0)
                for b, row, j, v in zip(self.b, self.terms, cols, xB)
            ]

        y = _refined(lambda y: self._reduced_costs(y, cols), lambda r: r @ Binv, len(cols))
        # the last residual leaves the rounded x_B in x
        xB = _refined(rows_residual, lambda r: Binv @ r, len(cols))
        if y is None or xB is None:
            return None
        if not all(
            lo[j] <= v and (hi[j] is None or v <= hi[j]) if j >= 0 else v == 0
            for j, v in zip(cols, xB)
        ):
            return None
        d = self._reduced_costs(y, range(N))
        movable = (j for j in range(N) if lo[j] != hi[j])
        if any(d[j] > 0 if at_upper[j] else d[j] < 0 for j in movable):
            return None
        primal = x[: self.n]
        obj = sum((c * v for c, v in zip(self.cost, primal)), Fraction(0))
        return LpResult(LpStatus.OPTIMAL, obj, primal, basis)

    def farkas(self, multipliers: list) -> Optional[LpResult]:
        """The INFEASIBLE result certified by y, the multipliers rounded to
        denominators at most FARKAS_DENOMINATOR (which turns a float's stray
        1e-17 in y A_j to 0), if y proves that no x within the bounds, slacks
        included, fits A x = b: the largest y A x over the bounds stays below
        y b, or the smallest above it. Else None."""
        y = [Fraction(v).limit_denominator(FARKAS_DENOMINATOR) for v in multipliers]
        yA = [c - d for c, d in zip(self.cost, self._reduced_costs(y, range(self.N)))]
        yb = sum((yi * b for yi, b in zip(y, self.b)), Fraction(0))
        for sign in (1, -1):
            # the largest sign * y A x over the bounds takes each x_j at the
            # bound its term's sign picks; an infinite one proves nothing
            ends = [(v, self.hi[j] if sign * v > 0 else self.lo[j]) for j, v in enumerate(yA) if v]
            if all(end is not None for _, end in ends) and sign * sum(
                (v * end for v, end in ends), Fraction(0)
            ) < sign * yb:
                return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS, farkas=y)
        return None


def _refined(residual, solve, size: int) -> Optional[list]:
    """z with residual(z) exactly zero, or None: REFINE_ROUNDS times z gains
    solve(residual(z)), a float inverse applied to the rounded residual, and
    each value is then rounded to a denominator at most CHECK_DENOMINATOR."""
    z = [Fraction(0)] * size
    for _ in range(REFINE_ROUNDS):
        step = solve(np.array([float(v) for v in residual(z)]))
        z = [v + Fraction(s) for v, s in zip(z, step.tolist())]
    z = [v.limit_denominator(CHECK_DENOMINATOR) for v in z]
    return None if any(residual(z)) else z

