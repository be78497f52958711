"""Bounded-variable simplex with warm re-optimization after added rows.

Two independent solver paths share one contract: a numpy float64 tableau
simplex (Dantzig pricing first, Bland afterwards, with a cycling guard) and a
pure-Fraction Bland simplex used to certify float results exactly. Both are
two-phase with artificial variables and accept the basis of a prior solve.

The float path re-optimizes from that basis after rows are added or bounds
fixed: nonbasic variables return to the bound they held, a bounded dual
simplex restores primal feasibility while the reduced costs stay dual
feasible, and the primal simplex finishes. A basis that is not dual feasible,
or a dual ratio test with no entering column, falls back to the cold
two-phase solve, so only phase 1 declares a program infeasible. The exact
path warm-starts only from a primal feasible basis, with the nonbasic
variables at the bounds the basis records.

A program keeps its row coefficients as one float64 matrix, built and
index-checked once per row set: appending rows converts only the new ones,
and a copy with other bounds or another objective shares the matrix. The
float simplex copies it into its tableau instead of re-reading the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OBJ_TOL = 1e-6

Number = Union[int, float, Fraction]


class LpError(RuntimeError):
    """Solver failure (cycling guard, inconsistent input, numerical trouble)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, Number], ...]
    rel: str  # "<=", "=" or ">="
    rhs: Number

    def __post_init__(self) -> None:
        if self.rel not in ("<=", "=", ">="):
            raise LpError(f"bad relation {self.rel!r}")


def make_row(
    coeffs: Mapping[int, Number] | Iterable[tuple[int, Number]], rel: str, rhs: Number
) -> Row:
    items = tuple(sorted(coeffs.items() if isinstance(coeffs, Mapping) else coeffs))
    return Row(items, rel, rhs)


@dataclass(frozen=True)
class LinearProgram:
    """Minimization LP over bounded variables; treated as immutable.

    matrix holds the row coefficients, one float64 row per Row. A program
    constructed without it builds it and checks every row's indices;
    with_rows converts and checks only the appended rows, and copies that
    keep the rows (lp_fix_variable, dataclasses.replace) share it.
    """

    num_vars: int
    objective: tuple[tuple[int, Number], ...]
    rows: tuple[Row, ...]
    lo: tuple[Number, ...]
    hi: tuple[Number, ...]
    matrix: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.lo) != self.num_vars or len(self.hi) != self.num_vars:
            raise LpError("bounds must cover every variable")
        for j, (l, h) in enumerate(zip(self.lo, self.hi)):
            if not l <= h:
                raise LpError(f"variable {j}: lo {l} > hi {h}")
            if math.isinf(float(l)):
                raise LpError(f"variable {j}: lower bound must be finite")
        for idx, _ in self.objective:
            if not 0 <= idx < self.num_vars:
                raise LpError(f"objective index {idx} out of range")
        if self.matrix is None:
            object.__setattr__(self, "matrix", _row_matrix(self.rows, self.num_vars))
        elif self.matrix.shape != (len(self.rows), self.num_vars):
            raise LpError("coefficient matrix does not match the rows")

    def with_rows(self, new_rows: Sequence[Row]) -> "LinearProgram":
        new_rows = tuple(new_rows)
        matrix = np.vstack([self.matrix, _row_matrix(new_rows, self.num_vars)])
        return replace(self, rows=self.rows + new_rows, matrix=matrix)


def _row_matrix(rows: Sequence[Row], num_vars: int) -> np.ndarray:
    """The rows' coefficients as a float64 array; raises on an index out of range."""
    matrix = np.zeros((len(rows), num_vars))
    for i, row in enumerate(rows):
        cols = [idx for idx, _ in row.coeffs]
        for idx in cols:
            if not 0 <= idx < num_vars:
                raise LpError(f"row index {idx} out of range")
        np.add.at(matrix[i], cols, [float(coef) for _, coef in row.coeffs])
    return matrix


def make_lp(
    num_vars: int,
    objective: Mapping[int, Number] | Iterable[tuple[int, Number]] = (),
    rows: Sequence[Row] = (),
    bounds: Optional[Sequence[tuple[Number, Number]]] = None,
) -> LinearProgram:
    """Convenience constructor; default bounds are [0, +inf) per variable."""
    if bounds is None:
        bounds = [(0, math.inf)] * num_vars
    obj = tuple(
        sorted(objective.items() if isinstance(objective, Mapping) else objective)
    )
    lo = tuple(b[0] for b in bounds)
    hi = tuple(b[1] for b in bounds)
    return LinearProgram(num_vars, obj, tuple(rows), lo, hi)


@dataclass(frozen=True)
class Basis:
    """The basic variable of each row and the nonbasic variables held at their
    upper bound. Slacks are numbered after the program's variables in row
    order; -1 marks a row whose artificial stayed basic."""

    basic: tuple[int, ...]
    at_upper: frozenset[int] = frozenset()


NO_BASIS = Basis(())


@dataclass
class LpResult:
    status: LpStatus
    objective_value: Optional[Number]
    primal: list
    basis: Basis
    warm_started: bool = False  # the prior basis was used, with or without dual pivots
    pivots: int = 0  # basis changes of every phase, a discarded warm attempt included


def lp_fix_variable(lp: LinearProgram, var: int, value: Number) -> LinearProgram:
    """New program with lo = hi = value for var; value must fit original bounds."""
    if not 0 <= var < lp.num_vars:
        raise LpError(f"variable {var} out of range")
    if not lp.lo[var] <= value <= lp.hi[var]:
        raise LpError(
            f"fix value {value} outside bounds [{lp.lo[var]}, {lp.hi[var]}] of var {var}"
        )
    lo = list(lp.lo)
    hi = list(lp.hi)
    lo[var] = value
    hi[var] = value
    return replace(lp, lo=tuple(lo), hi=tuple(hi))


def lp_solve(
    lp: LinearProgram,
    warm_basis: Optional[Basis] = None,
    *,
    exact: bool = False,
) -> LpResult:
    """Solve to proven optimality, or report Infeasible/Unbounded.

    warm_basis is the basis of an earlier solve of this program before rows
    were appended or bounds changed. exact=True runs the independent Fraction
    simplex (Bland pivoting, no tolerances); float coefficients are converted
    to their exact binary rationals.
    """
    if exact:
        return _ExactSimplex(lp).solve(warm_basis)
    return _FloatSimplex(lp).solve(warm_basis)


# ---------------------------------------------------------------------------
# float path


@dataclass
class _State:
    T: np.ndarray          # m x width current tableau
    basis: np.ndarray      # m basic variable indices
    xB: np.ndarray         # m basic values
    at_upper: np.ndarray   # width nonbasic-at-upper flags
    lo: np.ndarray         # width lower bounds
    hi: np.ndarray         # width upper bounds (inf allowed)
    num_art: int

    @property
    def width(self) -> int:
        return self.T.shape[1]


class _FloatSimplex:
    def __init__(self, lp: LinearProgram) -> None:
        n = lp.num_vars
        m = len(lp.rows)
        self.n = n
        self.m = m
        self.le = np.array([row.rel == "<=" for row in lp.rows], dtype=bool)
        self.ge = np.array([row.rel == ">=" for row in lp.rows], dtype=bool)
        slack_rows = np.flatnonzero(self.le | self.ge)
        N = n + len(slack_rows)
        self.N = N
        A = np.zeros((m, N))
        A[:, :n] = lp.matrix
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = n + np.arange(len(slack_rows))
        A[slack_rows, self.slack_of_row[slack_rows]] = np.where(self.le[slack_rows], 1.0, -1.0)
        self.A = A
        self.b = np.array([float(row.rhs) for row in lp.rows], dtype=float)
        lo = np.zeros(N)
        hi = np.full(N, np.inf)
        lo[:n] = [float(v) for v in lp.lo]
        hi[:n] = [float(v) for v in lp.hi]
        self.lo = lo
        self.hi = hi
        self.cost = np.zeros(N)
        for idx, coef in lp.objective:
            self.cost[idx] += float(coef)
        size = m + N
        self.dantzig_limit = 500 + 5 * size
        self.iter_cap = self.dantzig_limit + 5000 + 100 * size
        self.pivots = 0

    def solve(self, warm_basis: Optional[Basis]) -> LpResult:
        result = None
        if warm_basis is not None and self.m > 0:
            result = self._warm(warm_basis)
        warm_started = result is not None
        if result is None:
            result = self._cold()
        return replace(result, warm_started=warm_started, pivots=self.pivots)

    def _warm(self, warm: Basis) -> Optional[LpResult]:
        state = self._warm_state(warm)
        if state is None or not self._dual_loop(state):
            return None
        status = self._loop(state, phase1=False)
        if status == "cycled":
            return None
        return self._finish(state, status)

    def _warm_state(self, warm: Basis) -> Optional[_State]:
        m, N = self.m, self.N
        basis = list(warm.basic[:m])
        for i in range(len(basis), m):
            s = int(self.slack_of_row[i])
            if s < 0:
                return None
            basis.append(s)
        if len(basis) != m or len(set(basis)) != m:
            return None
        if any(not 0 <= j < N for j in basis + list(warm.at_upper)):
            return None
        basis_arr = np.array(basis, dtype=int)
        try:
            T = np.linalg.solve(self.A[:, basis_arr], np.column_stack([self.A, self.b]))
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(T)):
            return None
        at_upper = np.zeros(N, dtype=bool)
        at_upper[list(warm.at_upper)] = True
        at_upper &= np.isfinite(self.hi)
        at_upper[basis_arr] = False
        xN = np.where(at_upper, self.hi, self.lo)
        xN[basis_arr] = 0.0
        xB = T[:, N] - T[:, :N] @ xN
        T = np.ascontiguousarray(T[:, :N])
        return _State(T, basis_arr, xB, at_upper, self.lo.copy(), self.hi.copy(), 0)

    def _dual_loop(self, state: _State) -> bool:
        """Bounded dual simplex until every basic value fits its bounds.

        The row with the largest bound violation leaves; the entering column
        minimizes |d_j| / |alpha_rj| over the nonbasic columns that move the
        leaving value toward its bound, ties to the largest |alpha_rj| and then
        the lowest index. Returns False when the basis is not dual feasible,
        no column can enter or the iteration cap trips; the caller then
        solves cold.
        """
        lo, hi = state.lo, state.hi
        movable = (hi - lo) > 0
        for it in range(self.dantzig_limit):
            basis = state.basis
            T = state.T
            below = lo[basis] - state.xB
            above = state.xB - hi[basis]
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if viol[r] <= FEAS_TOL:
                return True
            z = self.cost - self.cost[basis] @ T
            free = movable.copy()
            free[basis] = False
            # dual slack: how far each reduced cost is from pricing its column in
            slack = np.where(state.at_upper, -z, z)
            if it == 0 and np.any(free & (slack < -FEAS_TOL)):
                return False
            alpha = T[r]
            # the leaving value rises when below its bound; column j moves it by
            # -alpha_rj per unit, up from a lower bound or down from an upper one
            toward = alpha if below[r] > 0 else -alpha
            elig = free & np.where(state.at_upper, toward > PIVOT_TOL, toward < -PIVOT_TOL)
            if not elig.any():
                return False
            ratios = np.full(len(z), np.inf)
            ratios[elig] = np.maximum(slack[elig], 0.0) / np.abs(alpha[elig])
            best = float(ratios.min())
            tied = np.flatnonzero(ratios <= best + 1e-12 + 1e-9 * best)
            q = int(tied[np.argmax(np.abs(alpha[tied]))])
            target = lo[basis[r]] if below[r] > 0 else hi[basis[r]]
            step = (state.xB[r] - target) / alpha[q]
            entering_value = (hi[q] if state.at_upper[q] else lo[q]) + step
            state.xB -= step * T[:, q]
            leaving = int(basis[r])
            state.at_upper[leaving] = not below[r] > 0
            self._pivot(state, r, q)
            state.xB[r] = entering_value
        return False

    def _cold(self) -> LpResult:
        m, N = self.m, self.N
        resid = self.b - self.A @ self.lo
        basis = np.full(m, -1, dtype=int)
        art_rows = []
        for i in range(m):
            s = int(self.slack_of_row[i])
            if s >= 0 and resid[i] * self.A[i, s] >= 0:
                basis[i] = s
            else:
                art_rows.append(i)
        num_art = len(art_rows)

        A_ext = np.hstack([self.A, np.zeros((m, num_art))]) if num_art else self.A.copy()
        for t, i in enumerate(art_rows):
            A_ext[i, N + t] = 1.0 if resid[i] >= 0 else -1.0
            basis[i] = N + t

        T = A_ext.copy()
        xB = np.zeros(m)
        for i in range(m):
            coef = A_ext[i, basis[i]]
            if coef < 0:
                T[i] = -T[i]
            xB[i] = abs(resid[i]) if basis[i] >= N else resid[i] * self.A[i, basis[i]]

        lo_ext = np.concatenate([self.lo, np.zeros(num_art)])
        hi_ext = np.concatenate([self.hi, np.full(num_art, np.inf)])
        state = _State(
            T,
            basis,
            xB,
            np.zeros(N + num_art, dtype=bool),
            lo_ext,
            hi_ext,
            num_art,
        )

        if num_art:
            status = self._loop(state, phase1=True)
            if status == "cycled":
                raise LpError("cycling guard tripped")
            if status == "unbounded":
                raise LpError("phase 1 became unbounded; inconsistent state")
            phase1_obj = float(state.xB[state.basis >= N].sum())
            if phase1_obj > FEAS_TOL * max(1.0, float(np.abs(self.b).sum())):
                return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS)
            self._drive_out_artificials(state)
            state.hi[N:] = 0.0

        status = self._loop(state, phase1=False)
        if status == "cycled":
            raise LpError("cycling guard tripped")
        return self._finish(state, status)

    def _drive_out_artificials(self, state: _State) -> None:
        N = self.N
        basic = set(state.basis.tolist())
        for r in range(self.m):
            if state.basis[r] < N:
                continue
            row = state.T[r, :N]
            pivot_col = -1
            for j in np.flatnonzero(np.abs(row) > PIVOT_TOL):
                if int(j) not in basic:
                    pivot_col = int(j)
                    break
            if pivot_col < 0:
                continue  # redundant row; artificial stays basic, pinned at zero
            basic.discard(int(state.basis[r]))
            entering_value = (
                state.hi[pivot_col] if state.at_upper[pivot_col] else state.lo[pivot_col]
            )
            self._pivot(state, r, pivot_col)
            state.xB[r] = entering_value
            basic.add(pivot_col)

    def _pivot(self, state: _State, r: int, j: int) -> None:
        self.pivots += 1
        T = state.T
        piv = T[r, j]
        T[r] = T[r] / piv
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        T[:, j] = 0.0
        T[r, j] = 1.0
        state.basis[r] = j
        state.at_upper[j] = False

    def _loop(self, state: _State, phase1: bool) -> str:
        width = state.width
        if phase1:
            cost = np.zeros(width)
            cost[self.N :] = 1.0
        else:
            cost = np.zeros(width)
            cost[: self.N] = self.cost
        lo, hi = state.lo, state.hi
        never_enter = np.zeros(width, dtype=bool)
        never_enter[self.N :] = True  # artificials never re-enter
        movable = (hi - lo) > 0

        iters = 0
        while True:
            iters += 1
            if iters > self.iter_cap:
                return "cycled"
            basis = state.basis
            T = state.T
            z = cost - cost[basis] @ T
            basic_mask = np.zeros(width, dtype=bool)
            basic_mask[basis] = True
            z[basic_mask] = 0.0
            free = ~basic_mask & ~never_enter & movable
            lower_elig = free & ~state.at_upper & (z < -PIVOT_TOL)
            upper_elig = free & state.at_upper & (z > PIVOT_TOL)
            elig = lower_elig | upper_elig
            if not elig.any():
                return "optimal"
            if iters <= self.dantzig_limit:
                scores = np.where(elig, np.abs(z), -1.0)
                j = int(np.argmax(scores))
            else:
                j = int(np.flatnonzero(elig)[0])

            sigma = -1.0 if state.at_upper[j] else 1.0
            d = T[:, j]
            delta = -sigma * d
            t_rows = np.full(len(basis), np.inf)
            up = delta > PIVOT_TOL
            dn = delta < -PIVOT_TOL
            with np.errstate(invalid="ignore"):
                t_rows[up] = (hi[basis][up] - state.xB[up]) / delta[up]
                t_rows[dn] = (state.xB[dn] - lo[basis][dn]) / (-delta[dn])
            t_rows = np.maximum(t_rows, 0.0)
            t_flip = hi[j] - lo[j]
            row_min = float(t_rows.min()) if len(t_rows) else np.inf
            t_star = min(row_min, t_flip)
            if not np.isfinite(t_star):
                return "unbounded"
            state.xB -= sigma * t_star * d
            if t_flip <= row_min:
                state.at_upper[j] = not state.at_upper[j]
                continue
            close = np.flatnonzero(t_rows <= t_star + 1e-12 + 1e-9 * t_star)
            if iters <= self.dantzig_limit:
                # largest pivot among tied rows keeps the tableau stable;
                # Bland's lowest basis index below guarantees termination
                r = int(min(close, key=lambda i: (-abs(delta[i]), state.basis[i])))
            else:
                r = int(min(close, key=lambda i: state.basis[i]))
            entering_value = (hi[j] if state.at_upper[j] else lo[j]) + sigma * t_star
            leaving = int(state.basis[r])
            state.at_upper[leaving] = bool(delta[r] > 0) and np.isfinite(hi[leaving])
            self._pivot(state, r, j)
            state.xB[r] = entering_value

    def _finish(self, state: _State, status: str) -> LpResult:
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, None, [], NO_BASIS)
        width = state.width
        x = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0), state.lo)
        basis = state.basis
        if len(basis):
            x[basis] = 0.0
            if np.all(basis < self.N):
                # refresh basic values against the original system to kill drift
                try:
                    xB = np.linalg.solve(self.A[:, basis], self.b - self.A @ x[: self.N])
                    state.xB = xB
                except np.linalg.LinAlgError:
                    pass
            x[basis] = state.xB
        primal = np.clip(x[: self.n], self.lo[: self.n], self.hi[: self.n])
        activities = self.A[:, : self.n] @ primal
        b = self.b
        tol = 10 * FEAS_TOL * np.maximum(1.0, np.abs(b))
        violated = np.where(
            self.le,
            activities > b + tol,
            np.where(self.ge, activities < b - tol, np.abs(activities - b) > tol),
        )
        if violated.any():
            i = int(np.argmax(violated))
            act, rhs = float(activities[i]), float(b[i])
            sign = ">" if self.le[i] else "<" if self.ge[i] else "!="
            raise LpError(f"row {i} violated at optimum: {act} {sign} {rhs}")
        obj = float(self.cost[: self.n] @ primal)
        basis_out = Basis(
            tuple(int(j) if j < self.N else -1 for j in basis),
            frozenset(int(j) for j in np.flatnonzero(state.at_upper[: self.N])),
        )
        return LpResult(LpStatus.OPTIMAL, obj, [float(v) for v in primal], basis_out)


# ---------------------------------------------------------------------------
# exact path


class _ExactSimplex:
    """Bounded-variable simplex over exact rationals with Bland pivoting."""

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        n = lp.num_vars
        m = len(lp.rows)
        self.n = n
        self.m = m
        num_slacks = sum(1 for r in lp.rows if r.rel != "=")
        N = n + num_slacks
        self.N = N
        self.A = [[Fraction(0)] * N for _ in range(m)]
        self.b = [Fraction(0)] * m
        self.slack_of_row = [-1] * m
        slack = n
        for i, row in enumerate(lp.rows):
            for idx, coef in row.coeffs:
                self.A[i][idx] += _frac(coef)
            self.b[i] = _frac(row.rhs)
            if row.rel != "=":
                self.A[i][slack] = Fraction(1) if row.rel == "<=" else Fraction(-1)
                self.slack_of_row[i] = slack
                slack += 1
        self.lo: list[Fraction] = [_frac(v) for v in lp.lo] + [Fraction(0)] * num_slacks
        self.hi: list[Optional[Fraction]] = [
            None if math.isinf(float(v)) else _frac(v) for v in lp.hi
        ] + [None] * num_slacks
        self.cost = [Fraction(0)] * N
        for idx, coef in lp.objective:
            self.cost[idx] += _frac(coef)
        self.iter_cap = 20000 + 200 * (m + N)
        self.pivots = 0

    def solve(self, warm_basis: Optional[Basis]) -> LpResult:
        state = None
        if warm_basis is not None and self.m > 0:
            state = self._warm_state(warm_basis)
        warm_started = state is not None
        infeasible = False
        if state is None:
            state, infeasible = self._phase1()
        if infeasible:
            result = LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS)
        elif self._loop(state, phase1=False) == "unbounded":
            result = LpResult(LpStatus.UNBOUNDED, None, [], NO_BASIS)
        else:
            result = self._finish(state)
        return replace(result, warm_started=warm_started, pivots=self.pivots)

    # state: [T, basis, xB, at_upper, num_art]

    def _warm_state(self, warm: Basis):
        m, N = self.m, self.N
        basis = list(warm.basic[:m])
        for i in range(len(basis), m):
            s = self.slack_of_row[i]
            if s < 0:
                return None
            basis.append(s)
        if len(basis) != m or len(set(basis)) != m:
            return None
        if any(not 0 <= j < N for j in basis + list(warm.at_upper)):
            return None
        aug = []
        for i in range(m):
            aug.append([self.A[i][j] for j in basis] + list(self.A[i]) + [self.b[i]])
        for col in range(m):
            piv_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
            if piv_row is None:
                return None
            aug[col], aug[piv_row] = aug[piv_row], aug[col]
            piv = aug[col][col]
            if piv != 1:
                aug[col] = [v / piv for v in aug[col]]
            for r in range(m):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [a - factor * p for a, p in zip(aug[r], aug[col])]
        T = [row[m : m + N] for row in aug]
        beta = [row[m + N] for row in aug]
        basic = set(basis)
        # nonbasic variables go back to the bound the basis records
        at_upper = [
            j in warm.at_upper and j not in basic and self.hi[j] is not None
            for j in range(N)
        ]
        x_nonbasic = {
            j: self.hi[j] if at_upper[j] else self.lo[j] for j in range(N) if j not in basic
        }
        nonzero = [(j, v) for j, v in x_nonbasic.items() if v]
        xB = [beta[i] - sum((T[i][j] * v for j, v in nonzero), Fraction(0)) for i in range(m)]
        for i, j in enumerate(basis):
            if xB[i] < self.lo[j]:
                return None
            if self.hi[j] is not None and xB[i] > self.hi[j]:
                return None
        return [T, basis, xB, at_upper, 0]

    def _phase1(self):
        m, N = self.m, self.N
        if m == 0:
            return [[], [], [], [False] * N, 0], False
        resid = []
        for i in range(m):
            acc = self.b[i]
            for j, a in enumerate(self.A[i]):
                if a and self.lo[j]:
                    acc -= a * self.lo[j]
            resid.append(acc)
        basis = [-1] * m
        art_rows = []
        for i in range(m):
            s = self.slack_of_row[i]
            if s >= 0 and resid[i] * self.A[i][s] >= 0:
                basis[i] = s
            else:
                art_rows.append(i)
        num_art = len(art_rows)
        T = [list(row) + [Fraction(0)] * num_art for row in self.A]
        for t, i in enumerate(art_rows):
            T[i][N + t] = Fraction(1) if resid[i] >= 0 else Fraction(-1)
            basis[i] = N + t
        xB = [Fraction(0)] * m
        for i in range(m):
            if basis[i] >= N:
                if T[i][basis[i]] < 0:
                    T[i] = [-v for v in T[i]]
                xB[i] = abs(resid[i])
            else:
                coef = self.A[i][basis[i]]
                if coef < 0:
                    T[i] = [-v for v in T[i]]
                xB[i] = resid[i] * coef
        self.lo += [Fraction(0)] * num_art
        self.hi += [None] * num_art
        state = [T, basis, xB, [False] * (N + num_art), num_art]
        if num_art:
            status = self._loop(state, phase1=True)
            if status != "optimal":
                raise LpError("exact phase 1 failed to reach an optimum")
            obj = sum(v for v, bi in zip(state[2], state[1]) if bi >= N)
            if obj > 0:
                return state, True
            self._drive_out(state)
            for t in range(num_art):
                self.hi[N + t] = Fraction(0)
        return state, False

    def _drive_out(self, state) -> None:
        T, basis, xB, at_upper, _ = state
        basic = set(basis)
        for r in range(self.m):
            if basis[r] < self.N:
                continue
            pivot_col = next(
                (j for j in range(self.N) if j not in basic and T[r][j] != 0), None
            )
            if pivot_col is None:
                continue
            basic.discard(basis[r])
            entering_value = (
                self.hi[pivot_col]
                if at_upper[pivot_col] and self.hi[pivot_col] is not None
                else self.lo[pivot_col]
            )
            self._pivot(state, r, pivot_col)
            xB[r] = entering_value
            basic.add(pivot_col)

    def _pivot(self, state, r: int, j: int) -> None:
        self.pivots += 1
        T, basis, _, at_upper, _ = state
        piv = T[r][j]
        if piv != 1:
            T[r] = [v / piv for v in T[r]]
        row_r = T[r]
        for i in range(len(T)):
            if i != r and T[i][j] != 0:
                factor = T[i][j]
                T[i] = [a - factor * p for a, p in zip(T[i], row_r)]
        basis[r] = j
        at_upper[j] = False

    def _loop(self, state, phase1: bool) -> str:
        T, basis, xB, at_upper, num_art = state
        width = self.N + num_art
        if phase1:
            cost = [Fraction(0)] * self.N + [Fraction(1)] * num_art
        else:
            cost = list(self.cost) + [Fraction(0)] * num_art
        iters = 0
        basic = set(basis)
        while True:
            iters += 1
            if iters > self.iter_cap:
                raise LpError("cycling guard tripped")
            z = list(cost)
            for i, bi in enumerate(basis):
                cb = cost[bi]
                if cb:
                    row = T[i]
                    for j in range(width):
                        if row[j]:
                            z[j] -= cb * row[j]
            entering = -1
            for j in range(width):
                if j in basic or j >= self.N:
                    continue
                if self.hi[j] is not None and self.lo[j] == self.hi[j]:
                    continue
                if at_upper[j]:
                    if z[j] > 0:
                        entering = j
                        break
                elif z[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            j = entering
            sigma = -1 if at_upper[j] else 1
            flip_t: Optional[Fraction] = (
                self.hi[j] - self.lo[j] if self.hi[j] is not None else None
            )
            best_t: Optional[Fraction] = flip_t
            best_row = -1
            for i in range(len(basis)):
                d = T[i][j]
                if d == 0:
                    continue
                delta = -sigma * d
                bi = basis[i]
                if delta > 0:
                    if self.hi[bi] is None:
                        continue
                    t = (self.hi[bi] - xB[i]) / delta
                else:
                    t = (xB[i] - self.lo[bi]) / (-delta)
                if t < 0:
                    t = Fraction(0)
                if (
                    best_t is None
                    or t < best_t
                    or (t == best_t and best_row >= 0 and bi < basis[best_row])
                ):
                    best_t = t
                    best_row = i
            if best_t is None:
                return "unbounded"
            t_star = best_t
            if t_star != 0:
                for i in range(len(basis)):
                    d = T[i][j]
                    if d:
                        xB[i] -= sigma * t_star * d
            if best_row < 0:
                at_upper[j] = not at_upper[j]
                continue
            r = best_row
            entering_value = (
                self.hi[j] if at_upper[j] and self.hi[j] is not None else self.lo[j]
            ) + sigma * t_star
            leaving = basis[r]
            d_r = -sigma * T[r][j]
            at_upper[leaving] = d_r > 0 and self.hi[leaving] is not None
            basic.discard(leaving)
            self._pivot(state, r, j)
            basic.add(j)
            xB[r] = entering_value

    def _finish(self, state) -> LpResult:
        T, basis, xB, at_upper, num_art = state
        width = self.N + num_art
        x = [
            (self.hi[j] if at_upper[j] and self.hi[j] is not None else self.lo[j])
            for j in range(width)
        ]
        for i, j in enumerate(basis):
            x[j] = xB[i]
        primal = x[: self.n]
        for i, row in enumerate(self.lp.rows):
            acc = -_frac(row.rhs)
            for idx, coef in row.coeffs:
                acc += _frac(coef) * primal[idx]
            if row.rel == "<=" and acc > 0:
                raise LpError(f"exact optimum violates row {i}")
            if row.rel == ">=" and acc < 0:
                raise LpError(f"exact optimum violates row {i}")
            if row.rel == "=" and acc != 0:
                raise LpError(f"exact optimum violates row {i}")
        obj = sum((self.cost[j] * primal[j] for j in range(self.n)), Fraction(0))
        basis_out = Basis(
            tuple(int(j) if j < self.N else -1 for j in basis),
            frozenset(j for j in range(self.N) if at_upper[j]),
        )
        return LpResult(LpStatus.OPTIMAL, obj, list(primal), basis_out)


def _frac(v: Number) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if math.isinf(v):
        raise LpError("cannot convert infinity to a rational")
    return Fraction(v)
