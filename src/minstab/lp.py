"""Bounded-variable simplex with warm re-optimization after added rows.

Every row has a slack column, so every float solve is one numpy float64
path: a bounded dual simplex restores primal feasibility on a dual feasible
basis, a primal simplex (Dantzig pricing first, Bland afterwards, with a
cycling guard) finishes on the program's costs, and the optimum is checked.
A cold solve starts from the all-slack basis B = diag(+-1), its own inverse,
with every other column at its lower bound, which is dual feasible for the
costs max(c, 0) its dual simplex runs on (Koberstein 2005; Maros 2003). An
exact solve proves the float verdict in exact arithmetic or raises.

The float path keeps the explicit basis inverse B^-1, m x m, beside the
program's matrix A, never the m x N tableau B^-1 A: a pivot reads tableau row
r as B^-1_r A and the entering column as B^-1 A_j, and updates only the
inverse. It re-optimizes from a prior basis after rows are added or bounds
fixed: nonbasic variables return to the bound they held, and the dual simplex
runs on the program's costs, which the prior optimum keeps dual feasible. The
dual simplex picks its leaving row by dual steepest edge, with the exact
weights ||e_r^T B^-1||^2 read off the kept inverse. The state keeps the basic
variables' bounds, which each pivot updates in the entering row, and the dual
ratio test keeps a +-1 sign per column for the bound it sits at, so no pivot
gathers either again. A row whose basic value no column can move toward its
bound proves the program infeasible, with that row of B^-1 as the Farkas
certificate; a warm start that finds one, or whose basis is not dual
feasible, solves cold instead, so a drifted inverse never decides
infeasibility.

A float solve's Basis keeps its final inverse over the program's rows, and
a warm float solve starts only from it: for a program whose first rows are
those very Row objects, k appended rows a with slack coefficients s add the
rows [-diag(s) a_B B^-1, diag(s)], in O(k m^2), and bound or cost changes
only move the nonbasic values and the reduced costs. The float path never
inverts a basis from scratch: any other warm basis solves cold. The pivots
update the reduced costs instead of pricing every column again. Every optimum
is checked against the original matrix: its basic values
x_B = B^-1 (b - A_N x_N) and duals y = c_B B^-1 are computed through the
inverse in O(m^2), each refined once against A_B; the rows must hold,
|c_B - y A_B| must stay within FEAS_TOL of the size of the terms it sums, and
y must price no free nonbasic column in. A warm solve that fails a check
solves cold; a cold solve that fails one raises. An equality row's slack is
fixed to [0, 0], so a redundant equality row keeps it basic at 0.

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
    read-only: A is the coefficient matrix with row i's slack, column
    num_vars + i, after the variables, slack the slacks' coefficients (+1 in
    a <= or = row, -1 in a >= row; an equality row's slack is fixed to 0), b
    the right-hand sides, and le and ge mark the <= and >= rows. blocks hold
    the coefficients of consecutive rows and are copied into A one by one,
    never stacked first."""

    def __init__(self, rows: tuple[Row, ...], blocks: Sequence[np.ndarray]) -> None:
        m, n = len(rows), blocks[0].shape[1]
        self.le = np.array([row.rel == "<=" for row in rows], dtype=bool)
        self.ge = np.array([row.rel == ">=" for row in rows], dtype=bool)
        self.N = n + m
        self.A = np.zeros((m, self.N))
        i = 0
        for block in blocks:
            self.A[i : i + len(block), :n] = block
            i += len(block)
        self.slack = np.where(self.ge, -1.0, 1.0)
        self.A[np.arange(m), n + np.arange(m)] = self.slack
        self.b = np.array([row.rhs for row in rows], dtype=float)
        for array in (self.le, self.ge, self.A, self.slack, self.b):
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
    upper bound. Row i's slack is variable num_vars + i.

    An optimal float solve keeps its final inverse: rows are the program's
    rows and Binv is B^-1, m x m (0 x 0 without rows), for the basic columns
    in row order, read-only, so copies of a Basis share it. Both are left
    out of == and repr. A warm float solve extends the inverse when the
    program's first rows are these very Row objects (with_rows keeps them);
    otherwise the float solve starts cold. The exact check reads x_B and y
    through it."""

    basic: tuple[int, ...]
    at_upper: frozenset[int] = frozenset()
    rows: tuple[Row, ...] = field(default=(), compare=False, repr=False)
    Binv: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


NO_BASIS = Basis(())


@dataclass
class LpResult:
    """A solve's outcome. warm_started: the optimum was reached from the
    prior basis's kept inverse, with or without dual pivots. pivots counts
    the basis changes of every loop, a discarded warm attempt's too. An
    exact result has the float solve's warm_started and pivots. farkas is an
    INFEASIBLE result's certificate, one multiplier y per row: row r of B^-1
    for a row r whose basic value no column could move toward its bound.
    Over the bounds, max y A x < y b or min y A x > y b, so no x fits the
    rows; Fractions that passed that test on the exact path."""

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
    A: np.ndarray          # m x N constraint matrix, a slack column per row
    basis: np.ndarray      # m basic variable indices
    xB: np.ndarray         # m basic values
    at_upper: np.ndarray   # N nonbasic-at-upper flags
    lo: np.ndarray         # N lower bounds
    hi: np.ndarray         # N upper bounds (inf allowed)
    # lo[basis] and hi[basis], gathered here and kept current by each pivot
    lo_B: np.ndarray = field(init=False)
    hi_B: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.lo_B = self.lo[self.basis]
        self.hi_B = self.hi[self.basis]

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """cost - y A for the duals y = c_B B^-1."""
        return cost - (cost[self.basis] @ self.Binv) @ self.A


class _FloatSimplex:
    def __init__(self, lp: LinearProgram) -> None:
        n = self.n = lp.num_vars
        m = self.m = len(lp.rows)
        self.rows = lp.rows
        form = lp.form
        self.le, self.ge, self.slack = form.le, form.ge, form.slack
        self.A, self.b = form.A, form.b
        N = self.N = form.N
        self.lo = np.concatenate([lp.lo, np.zeros(m)])
        self.hi = np.concatenate([lp.hi, np.where(form.le | form.ge, np.inf, 0.0)])
        self.cost = np.concatenate([lp.cost, np.zeros(m)])
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
                    result = self._run(state, self.cost)
                except LpError:
                    # no dual feasible start, a tripped guard, or an optimum
                    # that failed a check against the original matrix: drift
                    # or a damaged inverse
                    pass
                if result is not None and result.status is LpStatus.INFEASIBLE:
                    result = None  # only a cold start decides infeasibility
        warm_started = result is not None
        if result is None:
            result = self._run(self._slack_state(), np.maximum(self.cost, 0.0))
        result.warm_started = warm_started
        result.pivots = self.pivots
        return result

    def _run(self, state: _State, dual_cost: np.ndarray) -> LpResult:
        """The dual simplex on dual_cost, for which state's basis is dual
        feasible, then the primal simplex on the program's cost, and the
        checked result (_finish). A row in which the dual simplex finds no
        entering column makes the result INFEASIBLE, with that row of B^-1
        as its Farkas certificate. Raises LpError when the dual simplex
        does, the primal one's guard trips or _finish's checks fail."""
        r = self._dual_loop(state, dual_cost)
        if r >= 0:
            farkas = state.Binv[r].tolist()
            return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS, farkas=farkas)
        status = self._loop(state)
        if status == "cycled":
            raise LpError("cycling guard tripped")
        return self._finish(state, status)

    def _slack_state(self) -> _State:
        """The cold start: every row's slack basic, so B = diag(+-1) is its
        own inverse, and every other column at its lower bound."""
        return self._start(frozenset(), self.n + np.arange(self.m), np.diag(self.slack))

    def _kept_state(self, warm: Basis) -> Optional[_State]:
        """warm's kept inverse extended by the appended rows, each of whose
        slacks joins the basis, in O(k m^2) for k rows; None unless this
        program's first rows are the inverse's very rows and the columns
        form a basis of this program."""
        if warm.Binv is None:
            return None
        m0 = len(warm.rows)
        if (
            m0 > self.m
            or len(warm.basic) != m0
            or warm.Binv.shape != (m0, m0)
            or not all(map(operator.is_, warm.rows, self.rows))
        ):
            return None
        columns = list(warm.basic) + list(range(self.n + m0, self.N))
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
            # with S = diag(+-1) the slack coefficients, its own inverse, so
            # B^-1 has the rows [-S a_B B0^-1, S] below B0^-1
            s = self.slack[m0:]
            Binv[m0:, :m0] = -(self.A[m0:, basis[:m0]] @ warm.Binv) * s[:, None]
            Binv[m0:, m0:] = np.diag(s)
        return self._start(at_upper, basis, Binv)

    def _start(self, upper: frozenset, basis: np.ndarray, Binv: np.ndarray) -> _State:
        """The state on basis inverse Binv with the nonbasic variables upper
        lists at their upper bounds, the others at their lower ones, and
        x_B = B^-1 (b - A x_N)."""
        at_upper = np.zeros(self.N, dtype=bool)
        at_upper[list(upper)] = True
        at_upper &= np.isfinite(self.hi)
        at_upper[basis] = False
        xN = np.where(at_upper, self.hi, self.lo)
        xN[basis] = 0.0
        xB = Binv @ (self.b - self.A @ xN)
        return _State(Binv, self.A, basis, xB, at_upper, self.lo, self.hi)

    def _dual_loop(self, state: _State, cost: np.ndarray) -> int:
        """Bounded dual simplex on cost until every basic value fits its
        bounds.

        The leaving row is chosen by dual steepest edge (_leaving_row); the
        entering column minimizes |d_j| / |alpha_rj| over the nonbasic
        columns that move the leaving value toward its bound, ties to the
        largest |alpha_rj| and then the lowest index. Returns -1 once every
        basic value fits, or a row r whose value no column can move toward
        its bound, for which row r of B^-1 proves the program infeasible.
        Raises LpError when the basis is not dual feasible for cost or the
        iteration cap trips.
        """
        lo, hi, at_upper, basis = state.lo, state.hi, state.at_upper, state.basis
        xB, lo_B, hi_B, Binv, A = state.xB, state.lo_B, state.hi_B, state.Binv, state.A
        movable = (hi - lo) > 0
        free = movable.copy()  # nonbasic and movable; each pivot swaps two entries
        free[basis] = False
        # -1 at upper, +1 otherwise: the direction a nonbasic column can move
        sign = np.where(at_upper, -1.0, 1.0)
        z = state.reduced_costs(cost)
        for it in range(self.dantzig_limit):
            r = self._leaving_row(state)
            if r < 0:
                return -1
            # dual slack: how far each reduced cost is from pricing its column in
            slack = sign * z
            if it == 0 and (free & (slack < -FEAS_TOL)).any():
                raise LpError("the basis is not dual feasible")
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
                return r
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
        raise LpError("cycling guard tripped in the dual simplex")

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

    def _loop(self, state: _State) -> str:
        m = self.m
        lo, hi, at_upper, basis = state.lo, state.hi, state.at_upper, state.basis
        xB, lo_B, hi_B, Binv, A = state.xB, state.lo_B, state.hi_B, state.Binv, state.A
        # nonbasic columns that can move; each pivot swaps two entries
        enterable = (hi - lo) > 0
        free = enterable.copy()
        free[basis] = False
        # priced once; each pivot updates them with the pivot row
        z = state.reduced_costs(self.cost)

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
        in. The result keeps the inverse, read-only."""
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, None, [], NO_BASIS)
        n, A, b, cost = self.n, self.A, self.b, self.cost
        at_upper, basis, Binv = state.at_upper, state.basis, state.Binv
        A_B = A[:, basis]
        c_B = cost[basis]
        x = np.where(at_upper, np.where(np.isfinite(self.hi), self.hi, 0.0), self.lo)
        x[basis] = 0.0
        rhs = b - A @ x
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
        d = cost - y @ A
        free = self.hi > self.lo
        free[basis] = False
        priced_in = free & np.where(at_upper, d > FEAS_TOL, d < -FEAS_TOL)
        if priced_in.any():
            j = int(priced_in.argmax())
            raise LpError(f"column {j} prices in at optimum: reduced cost {float(d[j])}")
        obj = float(cost[:n] @ primal)
        Binv.flags.writeable = False
        basis_out = Basis(
            tuple(basis.tolist()), frozenset(at_upper.nonzero()[0].tolist()), self.rows, Binv
        )
        return LpResult(LpStatus.OPTIMAL, obj, primal.tolist(), basis_out)


# ---------------------------------------------------------------------------
# exact path


class _ExactCheck:
    """Proves a float verdict in exact rationals: an optimum by its basis
    (check), infeasibility by a Farkas certificate (farkas)."""

    def __init__(self, lp: LinearProgram) -> None:
        self.n = lp.num_vars
        form = lp.form
        self.N = form.N
        # each row's nonzero coefficients in column order, slack included,
        # each float64 converted exactly
        self.terms: list[list[tuple[int, Fraction]]] = [[] for _ in lp.rows]
        rows_i, cols_j = form.A.nonzero()
        for i, j, coef in zip(rows_i.tolist(), cols_j.tolist(), form.A[rows_i, cols_j].tolist()):
            self.terms[i].append((j, Fraction(coef)))
        # every number is a float64, read exactly; None is an infinite bound,
        # and an equality row's slack is fixed to 0
        self.b = list(map(Fraction, form.b.tolist()))
        self.lo: list[Fraction] = list(map(Fraction, lp.lo.tolist())) + [Fraction(0)] * len(lp.rows)
        self.hi: list[Optional[Fraction]] = [
            None if math.isinf(v) else Fraction(v) for v in lp.hi.tolist()
        ] + [None if slack else Fraction(0) for slack in (form.le | form.ge).tolist()]
        self.cost = list(map(Fraction, lp.cost.tolist())) + [Fraction(0)] * len(lp.rows)

    def _reduced_costs(self, y: list, columns: Sequence[int]) -> list:
        """(c - y A)_columns."""
        d = {j: self.cost[j] for j in columns}
        for yi, row in zip(y, self.terms):
            if yi:
                for j, a in row:
                    if j in d:
                        d[j] -= yi * a
        return [d[j] for j in columns]

    def check(self, basis: Basis) -> Optional[LpResult]:
        """The solution on basis, a float optimum's, if exact arithmetic
        proves it optimal, else None: x_B and y solve B x_B = b - A_N x_N and
        y B = c_B exactly (_refined), x fits every bound, slacks included, so
        an equality row's slack is 0, and each movable nonbasic column's
        reduced cost has its bound's sign."""
        N, Binv, cols = self.N, basis.Binv, list(basis.basic)
        lo, hi = self.lo, self.hi
        at_upper = [j in basis.at_upper and hi[j] is not None for j in range(N)]
        x = [hi[j] if at_upper[j] else lo[j] for j in range(N)]

        def rows_residual(xB: list) -> list:  # b - A x, x_B put into x
            for j, v in zip(cols, xB):
                x[j] = v
            return [
                b - sum((a * x[j] for j, a in row if x[j]), Fraction(0))
                for b, row in zip(self.b, self.terms)
            ]

        y = _refined(lambda y: self._reduced_costs(y, cols), lambda r: r @ Binv, len(cols))
        # the last residual leaves the rounded x_B in x
        xB = _refined(rows_residual, lambda r: Binv @ r, len(cols))
        if y is None or xB is None:
            return None
        if not all(lo[j] <= v and (hi[j] is None or v <= hi[j]) for j, v in zip(cols, xB)):
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

