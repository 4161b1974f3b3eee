"""Linear-model container, dense-simplex LP solver, and binary branch and cut.

The model is a plain container: variables with finite bounds (optionally
binary), rows ``coefs {<=,>=,=} rhs``, and one linear objective.  It is
stored as the arrays the simplex reads: the column bounds and binary mask,
one dense row block A with the bounds of each row's logical, and the cost
vector.  Builders append their rows as one block (``add_rows``); cuts and
parsed files append one row at a time (``add_row``) to the same block, and
the ``rows`` and ``variables`` views name them on demand.  The LP
solver is a bounded dual simplex on a dense tableau of ``A x - s = 0``:
bounds stay on the variables (a branch fixes a binary by setting lb = ub),
each row's logical s carries the bounds of its sense, and the all-logical
start basis with every structural at its cheaper bound is dual feasible, so
one phase needs no bound rows, artificials or phase 1 (Koberstein, *The dual
simplex method*, 2005).  The leaving row is the largest bound violation and
the entering column the smallest dual ratio, switching to smallest-index
choices once the count of degenerate pivots passes a threshold; a hard pivot
limit raises NumericalFailure.  The MIP solver is best-bound branch and cut
on binary variables with most-fractional branching: an optional cut
callback sees the LP point of every node, the root first, fractional or not,
and the node is re-solved with the globally valid rows it returns until it
returns none (Padberg & Rinaldi, *SIAM Review* 33(1), 1991).  A caller's
presolve may pass fixings, values that every feasible point takes; they
bind from the separated root on, so the root value stays the model's own
relaxation, and every node inherits them (Savelsbergh, *ORSA J. Computing*
6(4), 1994).  One incumbent path serves primal heuristics.  A heuristic
proposes a vector: one whose binaries are 0/1 and that meets every bound
and row is taken as it is; any other is read on its binaries only, and the
LP with those binaries fixed completes the continuous part.  Either point
is vetted like any other candidate.  LP rounding, the one heuristic built
in, proposes the root point when the caller gives no heuristic.  When the
objective lies on the binaries, a proposal that does not beat the
incumbent is skipped before both.  Branch and cut works on the simplex's
own vectors, one value per variable in model order, and minimizes (the
negated costs of a maximized model): callbacks and heuristics see those
vectors, and only the returned incumbent is named.

The root LP, with or without the root's fixings, starts from the basis the
model carries (``MipModel.start``, which a builder may attach as a crash
basis; Bixby, *ORSA J. Computing* 4(3), 1992), else from the slack basis.
Every other LP starts from the final basis and at-upper flags of an
earlier one: a node from its parent's (both children share the pair), the
completion of a proposal from the basis of the node that proposed it, and
a re-solve after cuts from the node's own, with each new row's logical
joining the basis.  A branch fixes a binary that was basic, and a new
logical has zero cost, so the basis stays dual feasible and the same dual
phase re-optimizes it, usually in a few pivots (Achterberg, *Constraint
Integer Programming*, 2007).  An LP whose new bounds move no nonbasic
column (a branch) starts from that LP's final tableau itself, kept with
its values.  A branched node hands its tableau to both children; the first
child popped solves from a copy and the last one in place, and a proposal
always solves from a copy.  KEEP_CELLS, a memory guard, bounds the cells
of the tableaux that open nodes hold; a node over it hands its children
the basis alone.  Any other LP rebuilds the tableau of its start's basis
from one k x k block inverse over its k basic structurals, not from an
m x m solve.  Each result is accepted only when its residual max |A x - s|
is at most FEAS_TOL, else the next start is tried, the slack basis last
(Koberstein 2005 pairs such a check with refactorization).

Models can be written to and re-read from the textual LP format (sections
Maximize/Subject To/Bounds/Binary/End).
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import NumericalFailure, ParseError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: absolute guard used when normalizing gaps
GAP_FLOOR = 1e-9
#: relative gap at which branch and bound stops
GAP_TOL = 1e-6
#: bound violation the simplex accepts, and slack on a fixed value
FEAS_TOL = 1e-7
#: smallest pivot-row entry the ratio test considers
PIVOT_TOL = 1e-9
#: degenerate pivots after which the simplex uses the smallest-index rule
BLAND_AFTER = 1000
#: pivots of one LP after which NumericalFailure is raised
MAX_PIVOTS = 200_000
#: distance from 0 or 1 within which a binary counts as integral
INT_TOL = 1e-6
#: bound or row violation an incumbent may carry
INC_TOL = 5e-6
#: float64 cells (8 MiB) of the kept tableaux that open nodes may hold; a
#: memory guard, not an option
KEEP_CELLS = 2**20


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    binary: bool


@dataclass(frozen=True)
class Row:
    name: str
    coefs: dict[str, float]
    sense: str
    rhs: float


@dataclass
class SolveParams:
    """Branch-and-bound settings: the wall-clock limit in seconds."""

    time_limit: float = 300.0


@dataclass
class SolveResult:
    """Outcome of an LP or MIP solve.

    ``x`` is the incumbent (present iff a feasible point was found), ``value``
    its objective, ``bound`` the dual bound, and
    ``gap = |bound - value| / max(|value|, 1e-9)``.  ``root_value`` is the
    LP relaxation value at the branch-and-bound root (NaN for a bare LP or
    an infeasible root).
    """

    status: str
    x: dict[str, float] | None
    value: float
    bound: float
    gap: float
    nodes: int
    runtime: float
    iterations: int = 0
    root_value: float = np.nan


class _View(Sequence):
    """Read-only sequence of a model's columns or rows, built on demand."""

    def __init__(self, size: Callable[[], int], item: Callable[[int], object]):
        self._size, self._item = size, item

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, k):
        k = range(len(self))[k]
        if isinstance(k, range):
            return [self._item(i) for i in k]
        return self._item(k)


class MipModel:
    """Mutable linear model stored as arrays, with finite-bound columns.

    Columns are names, lb, ub and a binary mask.  Rows are one dense block A
    (a row per constraint, a column per variable), the bounds of each row's
    logical s with ``A x - s = 0`` (``<=`` gives (-inf, rhs], ``>=`` gives
    [rhs, inf) and ``=`` gives [rhs, rhs]) and the row names.  ``add_vars``
    and ``add_rows`` append in bulk; ``add_var``, ``add_binary`` and
    ``add_row`` are their one-item forms.  The block keeps spare rows, so
    rows added one at a time (cuts, a parsed file) cost amortized O(n) each.
    ``variables`` and ``rows`` are read-only sequences that build their
    ``Variable`` and ``Row`` items on demand.  ``start`` is the basis an LP
    of the model starts from when it is given no other (a ``WarmStart``
    without a tableau; None for the slack basis); a builder may attach one,
    and adding columns drops it.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective: dict[str, float] = {}
        self.maximize: bool = True
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._lb = np.zeros(0)
        self._ub = np.zeros(0)
        self._binary = np.zeros(0, dtype=bool)
        self._c = np.zeros(0)
        # rows [:_m] of these are the model's; the rest is spare capacity
        self._A = np.zeros((0, 0))
        self._rlo = np.zeros(0)
        self._rhi = np.zeros(0)
        self._m = 0
        self._row_names: list[str] = []
        self.start: WarmStart | None = None
        self.variables: Sequence[Variable] = _View(lambda: len(self._names), self._variable)
        self.rows: Sequence[Row] = _View(lambda: self._m, self._row)

    # -- construction -------------------------------------------------------

    def add_vars(self, names: Sequence[str], lb=0.0, ub=1.0, binary=False) -> None:
        """Append columns, checking them all first.

        ``lb``, ``ub`` and ``binary`` are scalars or one value per name.
        """
        k = len(names)
        lb, ub = np.full(k, lb, dtype=float), np.full(k, ub, dtype=float)
        binary = np.full(k, binary, dtype=bool)
        if not all(map(_NAME_RE.match, names)):
            bad = next(nm for nm in names if not _NAME_RE.match(nm))
            raise ValueError(f"variable name {bad!r} must match [A-Za-z0-9_]")
        if len(set(names)) < k or not self._index.keys().isdisjoint(names):
            dup = next(nm for i, nm in enumerate(names)
                       if nm in self._index or nm in names[:i])
            raise ValueError(f"duplicate variable {dup!r}")
        for bad, why in (
            (~(np.isfinite(lb) & np.isfinite(ub)), "needs finite bounds"),
            (lb > ub, "has lb > ub"),
            (((lb < 0) | (ub > 1)) & binary, "is binary with bounds outside [0,1]"),
        ):
            if bad.any():
                raise ValueError(f"variable {names[int(np.argmax(bad))]!r} {why}")
        n = len(self._names)
        self.start = None  # its basis indexes the old columns
        self._index.update(zip(names, range(n, n + k)))
        self._names.extend(names)
        self._lb = np.concatenate([self._lb, lb])
        self._ub = np.concatenate([self._ub, ub])
        self._binary = np.concatenate([self._binary, binary])
        self._c = np.concatenate([self._c, np.zeros(k)])
        self._A = np.hstack([self._A, np.zeros((len(self._A), k))])

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = 1.0, binary: bool = False
    ) -> str:
        self.add_vars([name], lb, ub, binary)
        return name

    def add_binary(self, name: str) -> str:
        return self.add_var(name, 0.0, 1.0, binary=True)

    def add_rows(self, A, lo, hi, names: Sequence[str]) -> None:
        """Append the rows lo <= A x <= hi, checking them all first.

        A is dense, a column per variable; ``lo`` and ``hi`` are scalars or
        one value per row.  Each row has one finite side, or lo = hi
        (``<=``, ``>=`` or ``=``).
        """
        A = np.asarray(A, dtype=float)
        k = len(A)
        lo, hi = np.full(k, lo, dtype=float), np.full(k, hi, dtype=float)
        if A.shape != (k, self.n_vars) or len(names) != k:
            raise ValueError(f"{k} rows need a {k} x {self.n_vars} block and {k} names")
        if not np.isfinite(A).all():
            raise ValueError("non-finite coefficient")
        ok = ((lo == -np.inf) & np.isfinite(hi)) | ((hi == np.inf) & np.isfinite(lo))
        if not (ok | (lo == hi) & np.isfinite(lo)).all():
            raise ValueError("each row needs one finite side or lo = hi")
        self._append(A, lo, hi, names)

    def _append(self, A, lo, hi, names) -> None:
        """Store checked rows, doubling the block when it is full."""
        m, k = self._m, len(A)
        if m + k > len(self._A):
            grown = max(m + k, 2 * len(self._A))
            A_new = np.zeros((grown, self.n_vars))
            A_new[:m] = self._A[:m]
            self._A = A_new
            self._rlo = np.concatenate([self._rlo[:m], np.zeros(grown - m)])
            self._rhi = np.concatenate([self._rhi[:m], np.zeros(grown - m)])
        np.add(A, 0.0, out=self._A[m : m + k])  # stores -0.0 as 0.0
        self._rlo[m : m + k] = lo
        self._rhi[m : m + k] = hi
        self._m = m + k
        self._row_names.extend(names)

    def add_row(
        self,
        coefs: Mapping[str, float],
        sense: str,
        rhs: float,
        name: str | None = None,
    ) -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"row sense must be <=, >= or =, got {sense!r}")
        a = np.zeros(self.n_vars)
        for var, c in coefs.items():
            if var not in self._index:
                raise ValueError(f"row references unknown variable {var!r}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on {var!r}")
            a[self._index[var]] = c
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ValueError("non-finite rhs")
        if name is None:
            name = f"c{self._m}"
        lo = -np.inf if sense == "<=" else rhs
        hi = np.inf if sense == ">=" else rhs
        self._append(a[None], lo, hi, [name])
        return self._m - 1

    def set_objective(self, coefs: Mapping[str, float], maximize: bool = True):
        coefs = {var: float(coef) for var, coef in coefs.items()}
        for var, coef in coefs.items():
            if var not in self._index:
                raise ValueError(f"objective references unknown variable {var!r}")
            if not math.isfinite(coef):
                raise ValueError(f"non-finite objective coefficient on {var!r}")
        self.objective = {var: coef for var, coef in coefs.items() if coef != 0.0}
        self._c = np.zeros(self.n_vars)
        self._c[[self._index[var] for var in self.objective]] = list(self.objective.values())
        self.maximize = bool(maximize)

    # -- views ---------------------------------------------------------------

    def _variable(self, k: int) -> Variable:
        return Variable(
            self._names[k], float(self._lb[k]), float(self._ub[k]), bool(self._binary[k])
        )

    def _row(self, k: int) -> Row:
        a = self._A[k]
        coefs = {self._names[j]: float(a[j]) for j in np.flatnonzero(a).tolist()}
        lo, hi = float(self._rlo[k]), float(self._rhi[k])
        if lo == -np.inf:
            return Row(self._row_names[k], coefs, "<=", hi)
        if hi == np.inf:
            return Row(self._row_names[k], coefs, ">=", lo)
        return Row(self._row_names[k], coefs, "=", lo)

    def var_index(self, name: str) -> int:
        return self._index[name]

    @property
    def n_vars(self) -> int:
        return len(self._names)

    def binaries(self) -> list[int]:
        return np.flatnonzero(self._binary).tolist()

    def _standard_form(self):
        """The stored ``A x - s = 0`` data: A, the bounds of [x, s], and costs.

        A and the costs are the model's own arrays, not copies; lo and hi
        are fresh, the column bounds followed by those of the row logicals.
        """
        m = self._m
        return (
            self._A[:m],
            np.concatenate([self._lb, self._rlo[:m]]),
            np.concatenate([self._ub, self._rhi[:m]]),
            self._c,
        )

    def objective_vector(self) -> np.ndarray:
        return self._c.copy()

    def max_violation(self, x: np.ndarray) -> float:
        """Largest bound or row violation of x, in variable order (0 if feasible).

        On the standard form, x and the row activities A x are checked
        against the bounds of [x, s].
        """
        A, lo, hi, _ = self._standard_form()
        z = np.concatenate([x, A @ x])
        return float(np.max(np.maximum(lo - z, z - hi), initial=0.0))


# ---------------------------------------------------------------------------
# bounded dual simplex
# ---------------------------------------------------------------------------


def _tableau(A, cost, lo, hi, basis, upper):
    """Tableau and values of [x, s] at a basis, or None when it cannot start.

    K is the basic structurals (k of them), L the rows whose logical is
    basic and R the other k rows; every nonbasic column sits at the bound
    its ``upper`` flag names, a fixed one at its fixed value.  With
    W = A_RK^-1 on the rows of K and A_LK A_RK^-1 on the rows of L, the
    tableau rows are W [A_R | -I_R], less [A_L | -I_L] on the rows of L;
    x_K = A_RK^-1 (s_R - A_RN x_N), s_L = A_L x and d = c - c_K T_K.  So
    one k x k inverse and one (m x k)(k x n) product build it, and the unit
    columns of the basis are filled exactly.  None when A_RK is singular or
    a nonbasic reduced cost has the wrong sign for its bound by more than
    FEAS_TOL.
    """
    m, n = A.shape
    pos_k = np.flatnonzero(basis < n)
    pos_l = np.flatnonzero(basis >= n)
    K = basis[pos_k]
    L = basis[pos_l] - n
    in_r = np.ones(m, dtype=bool)
    in_r[L] = False
    R = np.flatnonzero(in_r)
    A_R, A_L = A[R], A[L]
    try:
        inv = np.linalg.inv(A_R[:, K])
    except np.linalg.LinAlgError:
        return None
    W = np.empty((m, len(K)))
    W[pos_k] = inv
    W[pos_l] = A_L[:, K] @ inv
    body = W @ A_R
    body[pos_l] -= A_L
    y = cost[K] @ inv
    T = np.zeros((m + 1, n + m), order="F")
    T[:m, :n] = body
    T[:m, n + R] = -W
    T[m, :n] = cost - y @ A_R
    T[m, n + R] = y
    T[:, K] = 0.0
    T[np.arange(m), basis] = 1.0
    d = T[m]
    free = lo < hi
    free[basis] = False
    if np.any(free & np.where(upper, d > FEAS_TOL, d < -FEAS_TOL)):
        return None
    z = np.where(upper, hi, lo)
    x = z[:n]
    x[K] = 0.0
    x[K] = inv @ (z[n + R] - A_R @ x)
    z[n + L] = A_L @ x
    return T, z


@dataclass(eq=False)
class WarmStart:
    """Where a later LP of the same model starts: an Optimal LP's final state.

    A builder's start (``MipModel.start``) is one too, a basis with no
    tableau.  ``basis`` and ``upper`` are the final basis and at-upper flags
    of [x, s].  T and z are that LP's final tableau and values under the
    bounds lo and hi of [x, s], or None once dropped; they can seed a later
    LP only while the model has no row they lack.  ``owned`` hands T over:
    the solve it is given to may overwrite it, any other works on a copy.
    """

    basis: np.ndarray
    upper: np.ndarray
    T: np.ndarray | None = None
    z: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    owned: bool = False


def _seed(start: WarmStart, lo, hi):
    """The kept tableau of ``start`` under new bounds, as (T, z, basis), or None.

    A basic value that now breaks a bound (a branch on a basic binary) is
    left to the dual phase.  None when the model gained rows since, a bound
    was loosened, or a nonbasic value lies outside its new bounds (a binary
    a proposal fixes at its other bound), as the basis could then be dual
    infeasible or need a column moved.
    """
    T = start.T
    if T is None or T.shape[1] != len(lo) or ((lo < start.lo) | (hi > start.hi)).any():
        return None
    outside = (start.z < lo) | (start.z > hi)
    outside[start.basis] = False
    if outside.any():
        return None
    if not start.owned:
        T = T.copy(order="F")
    return T, start.z.copy(), start.basis.copy()


def _starts(A, cost, lo, hi, start):
    """The tableaux an LP tries in turn, as (T, z, basis).

    The kept tableau of ``start`` (``_seed``), then the tableaux of its
    basis and of the slack basis (every structural at the bound its cost
    prefers), the logicals of rows a basis lacks joining it; a basis that
    ``_tableau`` rejects yields nothing.
    """
    m, n = A.shape
    tries = [WarmStart(np.arange(0), cost < 0)]  # the slack basis
    if start is not None:
        tries.insert(0, start)
        seeded = _seed(start, lo, hi)
        if seeded is not None:
            yield seeded
    for tried in tries:
        new = np.arange(n + len(tried.basis), n + m)
        basis = np.concatenate([tried.basis, new])
        upper = np.concatenate([tried.upper, np.zeros(len(new), dtype=bool)])
        built = _tableau(A, cost, lo, hi, basis, upper)
        if built is not None:
            yield (*built, basis)


def _simplex(model: MipModel, fixes: dict[int, float] | None, start=None):
    """Solve the LP relaxation (integrality ignored) with bound overrides.

    Standard form ``A x - s = 0``: structurals keep their bounds (a fix sets
    lb = ub), and the logical s of each row is bounded by its sense.
    ``start`` is the ``WarmStart`` an earlier Optimal solve of this model
    returned, else ``model.start``, if any.  The dual phase runs from each
    of ``_starts`` in turn until its result passes the residual check,
    max |A x - s| at most FEAS_TOL (one matrix-vector product); the slack
    basis's result is taken as it is.  Returns (status, x_full, iterations,
    final) where status is "Optimal" or "Infeasible", x_full is a full
    variable-value vector and final the ``WarmStart`` of this solve (both
    None unless Optimal).  Raises NumericalFailure when the pivot limit is
    exhausted.
    """
    A, lo, hi, c = model._standard_form()  # lo and hi are fresh copies
    n = A.shape[1]
    if fixes:
        for idx, val in fixes.items():
            if val < lo[idx] - FEAS_TOL or val > hi[idx] + FEAS_TOL:
                return "Infeasible", None, 0, None
            lo[idx] = hi[idx] = val
    cost = -c if model.maximize else c
    if start is None:
        start = model.start
    iterations = 0
    for T, z, basis in _starts(A, cost, lo, hi, start):
        status, pivots = _kernels.dual_phase(
            T, basis, z, lo, hi, BLAND_AFTER, MAX_PIVOTS, FEAS_TOL, PIVOT_TOL
        )
        iterations += pivots
        if np.max(np.abs(A @ z[:n] - z[n:]), initial=0.0) <= FEAS_TOL:
            break  # else the tableau drifted: try the next start
    if status == 2:
        raise NumericalFailure(f"pivot limit {MAX_PIVOTS} hit")
    if status == 1:
        return "Infeasible", None, iterations, None
    final = WarmStart(basis, z == hi, T, z, lo, hi)
    return "Optimal", np.clip(z[:n], lo[:n], hi[:n]), iterations, final


def _lp(model: MipModel, fixes=None, start=None):
    """One LP solve as (SolveResult, final WarmStart or None)."""
    t0 = time.perf_counter()
    status, x_full, iters, final = _simplex(model, fixes, start)
    rt = time.perf_counter() - t0
    if status != "Optimal":
        return SolveResult(status, None, np.nan, np.nan, np.nan, 0, rt, iters), None
    val = float(model._standard_form()[3] @ x_full)
    x = _named(model, x_full)
    return SolveResult("Optimal", x, val, val, 0.0, 0, rt, iters), final


def _named(model: MipModel, x: np.ndarray) -> dict[str, float]:
    """The {name: value} form of a vector in model variable order."""
    return dict(zip(model._names, x.tolist()))


def solve_lp(model: MipModel) -> SolveResult:
    """Optimal basic (vertex) solution of the LP relaxation.

    Binary flags are ignored; bounds are honored.  The reported point is a
    vertex of the feasible region (basic solution of the simplex), reached
    from ``model.start`` when the model carries one.
    """
    return _lp(model)[0]


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


CutCallback = Callable[[np.ndarray], Iterable[tuple[Mapping[str, float], str, float]]]
Heuristic = Callable[[np.ndarray], np.ndarray | None]


def _gap(bound: float, value: float) -> float:
    return abs(bound - value) / max(abs(value), GAP_FLOOR)


def solve_mip(
    model: MipModel,
    params: SolveParams | None = None,
    cut_callback: CutCallback | None = None,
    heuristic: Heuristic | None = None,
    fixed: Mapping[int, float] | None = None,
) -> SolveResult:
    """Best-bound branch and cut over the binary variables.

    Points are the simplex's own vectors, one value per variable in model
    order, and the objective is minimized internally (its negation when the
    model maximizes); only the returned incumbent is named.  The root LP
    starts from ``model.start`` when the model carries one, as ``solve_lp``
    does, so ``root_value`` is the value ``solve_lp`` reports.

    Every node, the root first, solves its LP and then separates:
    ``cut_callback(x)`` sees the node's LP point, fractional or integral,
    and the rows it returns are added to the model (globally valid cuts) and
    the node is re-solved from its own basis, until the callback returns no
    row or the node can no longer beat the incumbent.  Only then is the
    point tested: an integral one becomes the incumbent, any other branches
    on the most fractional binary (ties to the smallest index).
    ``root_value`` is the root's value after its separation.

    ``fixed`` maps variable indices to values that every feasible point
    takes, such as a presolve's h_j = 0 for a job no set can anchor; the
    model itself is left as it is.  The root LP and its separation run
    without them, so ``root_value`` is the model's own relaxation.  Then
    they become the root's fixes, inherited by every child; the root
    re-solves (and separates again) only when its point breaks one of them
    by more than FEAS_TOL, from the start the root LP took (``model.start``,
    else the slack basis).  A fixing that no feasible point meets ends the
    search Infeasible.

    ``heuristic(x)`` turns the separated LP point of a node it branches into
    a proposal, a full vector (None proposes nothing).  It runs on a
    geometric schedule, at the k-th branched node for k = 0 (the root, when
    it branches), 1, 2, 4, 8, ...: deep in the tree its proposals seldom beat
    the incumbent, and each call costs about as much as a node LP.  A
    proposal whose binaries are 0/1 and that passes the incumbent's row
    check (``max_violation`` at most INC_TOL) is a point of the model, taken
    as it is.  Any other is read on its binaries, rounded to 0/1, and
    completed by the LP with those binaries fixed, warm-started from the
    proposing node's basis.  Either point is offered to the callback and the
    row check; a point the callback cuts off is dropped.  When the objective
    lies on the binaries, a proposal that does not beat the incumbent is
    skipped before the row check and the LP.  Without a heuristic, the root
    LP point, rounded, is proposed once instead.  With one it is not: the
    greedy that ``solve_formulation`` passes tries jobs in decreasing LP
    value and keeps every one that fits, so when the rounded set is feasible
    the greedy's set holds it.

    This function decides the returned value and bound.  When the objective
    lies on the binaries, the value is that of the incumbent's rounded
    binaries, not of its LP point, and the bound is the best open bound
    (the value once proved), rounded toward the value as node bounds are
    when the objective is integral.
    """
    params = params or SolveParams()
    t0 = time.perf_counter()
    binaries = np.array(model.binaries(), dtype=np.intp)
    sign = -1.0 if model.maximize else 1.0
    cost = sign * model._standard_form()[3]
    nodes = 0
    iterations = 0
    root_value = np.nan
    # On the binaries, the value of a proposal is known before the LP that
    # completes it.  Integral there, every feasible point has an integer
    # value, so node bounds round toward the incumbent at no cost.
    obj_on_binaries = not np.any(np.delete(cost, binaries))
    obj_integral = obj_on_binaries and np.all(np.abs(cost - np.round(cost)) <= 1e-9)

    def cap(bound: float) -> float:
        if not obj_integral or not np.isfinite(bound):
            return bound
        return float(np.ceil(bound - 1e-6))

    def elapsed():
        return time.perf_counter() - t0

    inc_x: np.ndarray | None = None
    inc_val = np.inf

    def pruned(val: float) -> bool:
        """Whether a node of LP value val cannot beat the incumbent."""
        return inc_x is not None and (
            cap(val) >= inc_val or _gap(cap(val), inc_val) <= GAP_TOL
        )

    def try_incumbent(x: np.ndarray, val: float) -> None:
        nonlocal inc_x, inc_val
        if (inc_x is None or val < inc_val) and model.max_violation(x) <= INC_TOL:
            inc_x, inc_val = x, val

    def vet_cuts(x: np.ndarray) -> bool:
        """Offer x to the callback; True when it added (violated) rows."""
        if cut_callback is None:
            return False
        cuts = list(cut_callback(x))
        for coefs, cut_sense, cut_rhs in cuts:
            model.add_row(coefs, cut_sense, cut_rhs)
        return bool(cuts)

    def solve(fixes: dict[int, float], start):
        """One LP: its point (None unless Optimal), value and final start."""
        nonlocal iterations
        _, x, iters, start = _simplex(model, fixes, start)
        iterations += iters
        return x, np.nan if x is None else float(cost @ x), start

    def solve_node(fixes: dict[int, float], start):
        """The node's LP, re-solved after every round of cuts.

        The final start is the node's alone; it keeps its tableau only while
        that fits under KEEP_CELLS beside the ones open nodes hold.
        """
        x, val, start = solve(fixes, start)
        while x is not None and not pruned(val) and vet_cuts(x):
            x, val, start = solve(fixes, start)
        if start is not None and start.T is not None and held + start.T.size > KEEP_CELLS:
            start = WarmStart(start.basis, start.upper)
        return x, val, start

    def propose(proposal: np.ndarray | None, start: WarmStart) -> None:
        """Offer a proposal's point: itself when feasible, else the LP's.

        A proposal with 0/1 binaries that passes the row check is a point
        of the model already; any other is completed by the LP with its
        rounded binaries fixed.
        """
        if proposal is None:
            return
        vals = np.where(proposal[binaries] >= 0.5, 1.0, 0.0)
        if obj_on_binaries and inc_x is not None and cost[binaries] @ vals >= inc_val:
            return
        if np.array_equal(proposal[binaries], vals) and (
            model.max_violation(proposal) <= INC_TOL
        ):
            x, val = proposal, float(cost @ proposal)
        else:
            x, val, _ = solve(dict(zip(binaries.tolist(), vals.tolist())), start)
        if x is not None and not vet_cuts(x):
            try_incumbent(x, val)

    # (bound, creation order, fixes, start shared with the sibling); the root
    # is solved cold
    order = itertools.count()
    heap: list[tuple[float, int, dict[int, float], WarmStart | None]] = [
        (-np.inf, next(order), {}, None)
    ]
    held = 0  # cells of the kept tableaux in the heap
    branched = 0  # fractional nodes that were not pruned before the heuristic

    status = "Optimal"
    open_bound = None  # the best bound left open when the search stops
    while heap:
        if nodes and elapsed() > params.time_limit:  # the root always runs
            status = "TimeLimit"
            break
        node_bound, _, fixes, start = heapq.heappop(heap)
        if inc_x is not None and _gap(node_bound, inc_val) <= GAP_TOL:
            # every open node is bounded by this one (best-bound order)
            open_bound = node_bound
            break
        root = not nodes
        if start is not None and start.owned and start.T is not None:
            held -= start.T.size  # the last child takes the tableau over
        x, val, final = solve_node(fixes, start)
        if start is not None:
            start.owned = True  # the first child solved from a copy
        start = final
        nodes += 1
        if root and x is not None:
            root_value = sign * val
            # root_value is the model's own; the fixings bind from here on
            fixes = dict(fixed or {})
            if any(abs(x[i] - v) > FEAS_TOL for i, v in fixes.items()):
                x, val, start = solve_node(fixes, None)  # the root's own start
        if x is None:
            continue
        if pruned(val):
            continue
        xb = x[binaries]
        if np.all(np.abs(xb - np.round(xb)) <= INT_TOL):
            try_incumbent(x, val)
            continue
        if heuristic is not None and branched & (branched - 1) == 0:
            propose(heuristic(x), start)  # at branched nodes 0, 1, 2, 4, 8, ...
        branched += 1
        if root and heuristic is None:  # LP rounding, once
            propose(x, start)
        if pruned(val):
            continue
        # branch on the most fractional binary, ties to the smallest index
        cand = -1
        best_dist = 2.0
        for i, dist in zip(binaries.tolist(), np.abs(xb - np.floor(xb) - 0.5).tolist()):
            if i not in fixes and dist < best_dist - 1e-12:
                best_dist = dist
                cand = i
        if start.T is not None:
            held += start.T.size
        for v in (0.0, 1.0):
            child = dict(fixes)
            child[cand] = v
            heapq.heappush(heap, (cap(val), next(order), child, start))

    if inc_x is None:
        return SolveResult(
            "TimeLimit" if status == "TimeLimit" else "Infeasible", None, np.nan,
            np.nan, np.nan, nodes, elapsed(), iterations, root_value,
        )
    if open_bound is None:  # stopped early with heap[0] the best, or proved
        open_bound = heap[0][0] if heap else np.inf
    value = inc_val
    if obj_on_binaries:  # the set's weight, free of the LP point's rounding
        value = float(cost[binaries] @ np.round(inc_x[binaries]))
    bound = cap(min(open_bound, value))
    return SolveResult(
        status, _named(model, inc_x), sign * value, sign * bound,
        _gap(bound, value), nodes, elapsed(), iterations, root_value,
    )


# ---------------------------------------------------------------------------
# LP-file export / parse
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.12g" % x


def _expr(terms: Iterable[tuple[str, float]]) -> str:
    """The sum of (name, coefficient) terms, in the order given."""
    parts = []
    for name, c in terms:
        if not parts:
            parts.append(f"{_fmt(c)} {name}")
        elif c >= 0:
            parts.append(f"+ {_fmt(c)} {name}")
        else:
            parts.append(f"- {_fmt(-c)} {name}")
    return " ".join(parts)


def export_lp_file(model: MipModel, destination) -> None:
    """Write the model in textual LP format (round-trip stable)."""
    obj = model.objective
    lines = [f"\\ Problem: {model.name}"]
    lines.append("Maximize" if model.maximize else "Minimize")
    lines.append(f" obj: {_expr((v, obj[v]) for v in model._names if v in obj)}".rstrip())
    lines.append("Subject To")
    for row in model.rows:  # coefs come in column order
        lines.append(f" {row.name}: {_expr(row.coefs.items())} {row.sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if not v.binary:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    bin_names = [v.name for v in model.variables if v.binary]
    if bin_names:
        lines.append("Binary")
        for name in bin_names:
            lines.append(f" {name}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    with open(destination, "w") as fh:
        fh.write(text)


def _parse_expr(tokens: list[str], lineno: int) -> dict[str, float]:
    coefs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        if _NAME_RE.match(tok):
            c = sign * (1.0 if pending is None else pending)
            coefs[tok] = coefs.get(tok, 0.0) + c
            sign, pending = 1.0, None
            continue
        try:
            num = float(tok)
        except ValueError:
            raise ParseError(f"line {lineno}: unexpected token {tok!r}")
        if pending is not None:
            raise ParseError(f"line {lineno}: dangling coefficient before {tok!r}")
        pending = num
    if pending is not None:
        raise ParseError(f"line {lineno}: dangling trailing number")
    return coefs


def parse_lp_file(source) -> MipModel:
    """Parse a file produced by export_lp_file back into a MipModel."""
    with open(source) as fh:
        raw = fh.readlines()
    model = MipModel()
    section = None
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    obj: dict[str, float] = {}
    rows: list[tuple[str, dict[str, float], str, float, int]] = []
    var_order: list[str] = []
    seen: set[str] = set()
    maximize = True

    def note_vars(coefs):
        for name in coefs:
            if name not in seen:
                seen.add(name)
                var_order.append(name)

    for lineno, line in enumerate(raw, start=1):
        text = line.split("\\")[0].strip()
        if not text:
            continue
        low = text.lower()
        if low in ("maximize", "minimize"):
            section = "objective"
            maximize = low == "maximize"
            continue
        if low in ("subject to", "st", "s.t."):
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("binary", "binaries", "bin"):
            section = "binary"
            continue
        if low == "end":
            section = "end"
            continue
        if section == "objective":
            body = text.split(":", 1)[1] if ":" in text else text
            obj.update(_parse_expr(body.split(), lineno))
            note_vars(obj)
        elif section == "rows":
            name, body = (text.split(":", 1) + [""])[:2] if ":" in text else (None, text)
            mrel = re.search(r"(<=|>=|=)", body)
            if not mrel:
                raise ParseError(f"line {lineno}: constraint without relation")
            rel = mrel.group(1)
            lhs, rhs_txt = body.rsplit(rel, 1)
            try:
                rhs = float(rhs_txt.strip())
            except ValueError:
                raise ParseError(f"line {lineno}: bad rhs {rhs_txt.strip()!r}")
            coefs = _parse_expr(lhs.split(), lineno)
            note_vars(coefs)
            rows.append((name.strip() if name else f"c{len(rows)}", coefs, rel, rhs, lineno))
        elif section == "bounds":
            mb = re.match(
                r"^([0-9.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*([0-9.eE+-]+)$",
                text,
            )
            if not mb:
                raise ParseError(f"line {lineno}: unsupported bound syntax {text!r}")
            lo, name, hi = float(mb.group(1)), mb.group(2), float(mb.group(3))
            bounds[name] = (lo, hi)
            note_vars((name,))
        elif section == "binary":
            for name in text.split():
                if not _NAME_RE.match(name):
                    raise ParseError(f"line {lineno}: bad binary name {name!r}")
                binaries.append(name)
                note_vars((name,))
        elif section == "end":
            raise ParseError(f"line {lineno}: content after End")
        else:
            raise ParseError(f"line {lineno}: content before Maximize/Minimize")

    bin_set = set(binaries)
    for name in var_order:
        if name in bin_set:
            model.add_binary(name)
        elif name in bounds:
            lo, hi = bounds[name]
            model.add_var(name, lo, hi)
        else:
            raise ParseError(f"variable {name!r} has no finite bounds and is not binary")
    for name, coefs, rel, rhs, lineno in rows:
        try:
            model.add_row(coefs, rel, rhs, name=name)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}")
    model.set_objective(obj, maximize=maximize)
    model.name = "model"
    return model
