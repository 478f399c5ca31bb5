"""Time integration of the forward and time-reversed systems.

The integrator of record is the implicit midpoint rule

    (I - dt/2 A) U_{k+1} = (I + dt/2 A) U_k,

taken in its one-solve form: solve (I - dt/2 A) Y_k = U_k for the
midpoint Y_k, then step to U_{k+1} = 2 Y_k - U_k.  The rule is exact
on the quadratic invariant of the skew part of G A: for conservative
moduli the discrete energy is constant to round-off, and with
dissipation the per-step balance

    E_{k+1} - E_k = -dt * D((U_k + U_{k+1}) / 2)

holds exactly, D being the gradient-rate quadrature.  MidpointStepper
eliminates the three position fields, whose rows are the identities
d(u, tau, R)/dt = (v, theta, M), and solves the remaining banded system
on the rates with a LAPACK band LU factored once per run: two triangular
band solves when the LU made no row interchange, dgbtrs otherwise.  On
small grids (6n <= _DENSE_STEP) it builds no band LU: a step is one
product U_{k+1} = P U_k with the step matrix P = 2 (I - dt/2 A)^-1 - I,
whose midpoint (U_k + U_{k+1}) / 2 is read back from the states.  Every
step's residual on the full system is checked, a chunk of steps at a
time with one CSR product, before its states leave; a step that misses
it raises SolveFailure, and one whose norms overflow raises NonFinite,
so no run returns a non-finite snapshot.

A run is one stream, and the only way to make one: snapshot_blocks
takes the initial state as a stacked 6n vector (discrete1d) and steps
as its blocks of kept states are drawn, so a caller that reduces each
block never holds the whole run, and one that wants every kept state
concatenates the blocks.  The stepper hands over each passing chunk of
steps as one node-major array, and the blocks are filled from the
chunks by strided slices.  Identical inputs give bitwise-identical
states.

The time-reversed problem is integrated forward in its own time
variable with its own operator (assemble_backward), not by negating dt.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .discrete1d import DiscreteOperator, _triplets, block_rows
from .errors import DimensionMismatch, NonFinite, SolveFailure

__all__ = [
    "MidpointStepper",
    "snapshot_blocks",
    "snapshot_times",
    "time_reversal",
]

_SOLVE_TOL = 1e-12
_BAND = 5  # kl = ku of the node-major reduced rate system
_CHUNK = 32  # most steps whose residuals one sparse product checks
# largest 6n whose steps apply the dense step matrix: one product, with
# its build spread over 400 steps, beats the band solve's calls
_DENSE_STEP = 168


class MidpointStepper:
    """Factored midpoint stepper for repeated steps at fixed dt.

    Every operator has position rows d(u, tau, R)/dt = (v, theta, M);
    the rate rows read d(v, theta, M)/dt = K (u, tau, R) + C (v, theta, M).
    A step from the state X solves (I - dt/2 A) Y = X for the midpoint
    Y and moves to 2 Y - X.  Eliminating the positions,
    Y_pos = X_pos + dt/2 W, leaves the reduced system

        (I - dt/2 C - dt^2/4 K) W = X_rate + dt/2 K X_pos

    on the 3n midpoint rates W.  In node-major order (the six fields of
    node 0, then those of node 1, ...) the reduced matrix is banded
    with kl = ku = 5: LAPACK dgbtrf factors it once.  When it made no
    row interchange, each step solves with two BLAS dtbsv calls, the
    unit lower and the upper band factor, bitwise what dgbtrs computes
    at a fraction of its per-column calls; otherwise it solves with
    dgbtrs.  Inside a run the state stays node-major, so positions and
    rates are the even and odd entries of one array, and dt/2 K X_pos
    is one BLAS dgbmv on band storage fused with the sum.  When
    6n <= _DENSE_STEP no band LU is built: the node-major I - dt/2 A is
    inverted once, a step is one product X+ = P X with the step matrix
    P = 2 (I - dt/2 A)^-1 - I, and its midpoint (X + X+) / 2 is read
    back from the two states.  Its residual carries the states'
    rounding times dt/2 |A|, so on a stiff operator or at a huge dt it
    can miss the guard where a solved midpoint passes: from the first
    such step on, the run solves with the inverse, which is kept since
    (P r + r) / 2 loses its small entries at large dt.

    A step is the solve and 2 Y - X, or the product P X, with no sparse
    product or norm.
    Up to _CHUNK steps (and at most a block of states, block_rows) are
    checked at once, by one CSR product over their midpoints: residual
    (I - dt/2 A) Y - X within 1e-12 |X|, next state finite.  States are
    yielded only from a passing chunk, as one (m, 6n) view of its states.
    At the first failing step the states before it are yielded; then
    NonFinite if |X|, the residual or the next state is not finite, so
    no non-finite state leaves, else the step is taken again by the
    solve if it was a product with P, or one refinement pass follows,
    after which the step passes and the run goes on from it, or
    SolveFailure.
    Construction raises SolveFailure when the position rows are not
    [0 | I], when a rate row reaches past the band, or when the reduced
    matrix (band path) or I - dt/2 A (dense path) is singular.
    """

    def __init__(self, op: DiscreteOperator, dt: float):
        if not (dt > 0 and math.isfinite((dt / 2) * (dt / 2))):
            raise ValueError(f"dt must be positive with (dt/2)^2 finite, got {dt}")
        self.op = op
        self.dt = float(dt)
        self._half = 0.5 * self.dt
        row, col, vals = _node_major_triplets(op)
        self._a = sp.csr_matrix((vals, (row, col)), shape=(6 * op.n, 6 * op.n))

        # reduced rate system: node-major index // 2, K on the even
        # (position) columns, C on the odd (rate) columns
        rate = row % 2 == 1
        i, j, vals = row[rate] // 2, col[rate] // 2, vals[rate]
        on_rate = col[rate] % 2 == 1
        if np.abs(i - j).max(initial=0) > _BAND:
            raise SolveFailure(
                f"rate rows of the operator are wider than the band "
                f"kl = ku = {_BAND} of the reduced system")
        if 6 * op.n <= _DENSE_STEP:
            try:
                inv = np.linalg.inv(np.eye(6 * op.n) - self._half * self._a.toarray())
            except np.linalg.LinAlgError as exc:
                raise SolveFailure(
                    f"midpoint matrix could not be factored: {exc}") from None
            self._inv, self._p = inv, 2.0 * inv - np.eye(6 * op.n)
            return
        self._inv = self._p = None
        size = 3 * op.n
        self._k_band = _band(i[~on_rate], j[~on_rate], vals[~on_rate], _BAND, _BAND, size)
        # scipy's dgbmv asks for at least kl + ku + 1 rows; the rows past
        # size meet only zero band entries, and _solve drops them
        self._k_rows = max(size, 2 * _BAND + 1)
        c_band = _band(i[on_rate], j[on_rate], vals[on_rate], _BAND, _BAND, size)
        # dgbtrf keeps its row interchanges in _BAND extra top rows
        lhs = np.zeros((3 * _BAND + 1, size), order="F")
        lhs[_BAND:] = -self._half * c_band - self._half ** 2 * self._k_band
        lhs[2 * _BAND] += 1.0
        self._lu, self._piv, info = lapack.dgbtrf(lhs, _BAND, _BAND, overwrite_ab=1)
        if info != 0:
            raise SolveFailure(
                f"midpoint matrix could not be factored: dgbtrf info = {info}")
        # without a row interchange U keeps the band ku = _BAND, so two
        # triangular band solves do exactly what dgbtrs does: the unit L
        # with its multipliers in the _BAND rows under U's diagonal row
        # (which a unit solve never reads), then U
        self._triangular = None
        if np.array_equal(self._piv, np.arange(size)):
            self._triangular = (np.asfortranarray(self._lu[2 * _BAND:]),
                                np.asfortranarray(self._lu[_BAND:2 * _BAND + 1]))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a node-major state x, or for one in each column of x."""
        return self._a @ x

    def _step(self, x: np.ndarray, out: np.ndarray):
        """The dense path's step: out = P x, P = 2 (I - dt/2 A)^-1 - I."""
        np.dot(self._p, x, out=out)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """Node-major solution of (I - dt/2 A) out = r, dense or by the reduced system."""
        if self._inv is not None:
            return self._inv @ r
        size = r.size // 2
        b = np.zeros(self._k_rows)
        b[:size] = r[1::2]
        b = blas.dgbmv(self._k_rows, size, _BAND, _BAND, self._half, self._k_band, r,
                       incx=2, beta=1.0, y=b, overwrite_y=1)[:size]
        if self._triangular is None:
            rate = lapack.dgbtrs(self._lu, _BAND, _BAND, b, self._piv, overwrite_b=1)[0]
        else:
            lower, upper = self._triangular
            rate = blas.dtbsv(_BAND, lower, b, lower=1, diag=1, overwrite_x=1)
            rate = blas.dtbsv(_BAND, upper, rate, overwrite_x=1)
        out = np.empty_like(r)
        out[1::2] = rate
        out[0::2] = r[0::2] + self._half * rate
        return out

    def _guard(self, xs: np.ndarray, ys: np.ndarray):
        """Residuals s_k = (I - dt/2 A) ys[k] - xs[k], their norms, the
        norms of the states xs (one row more than ys) and whether each
        step passes: |s_k| <= 1e-12 |xs[k]|, |xs[k + 1]| finite."""
        res = ys - self._half * self._apply(ys.T).T
        res -= xs[:-1]
        resid = np.sqrt(np.einsum("ij,ij->i", res, res))
        norms = np.sqrt(np.einsum("ij,ij->i", xs, xs))
        return res, resid, norms, (resid <= _SOLVE_TOL * norms[:-1]) & np.isfinite(norms[1:])

    def states(self, x: np.ndarray, n_steps: int):
        """The n_steps midpoint steps from the node-major state x, in
        order, as chunks: (m, 6n) views of the states of m passing steps,
        in a buffer that later draws overwrite, so copy what to keep."""
        rows = min(_CHUNK, block_rows(self.op.n))
        xs = np.empty((rows + 1, x.size))  # a chunk's states x_0 .. x_m
        ys = np.empty((rows, x.size))  # and its midpoints y_0 .. y_{m-1}
        xs[0] = x
        x_rows = list(xs)  # views, indexed faster than xs itself
        by_p = self._p is not None  # until a read-back midpoint misses the guard
        while n_steps:
            m = min(rows, n_steps)
            if by_p:
                step = self._step
                for k in range(m):
                    step(x_rows[k], x_rows[k + 1])
                np.add(xs[:m], xs[1:m + 1], out=ys[:m])
                ys[:m] *= 0.5
            else:
                for k in range(m):
                    y = self._solve(x_rows[k])
                    ys[k] = y
                    np.subtract(y + y, x_rows[k], out=x_rows[k + 1])
            res, resid, norms, ok = self._guard(xs[:m + 1], ys[:m])
            j = m if ok.all() else int(ok.argmin())  # the first failing step
            if j:
                yield xs[1:j + 1]
            if j < m:
                if not np.isfinite([norms[j], resid[j], norms[j + 1]]).all():
                    raise NonFinite(f"midpoint step left the float range: |x| = "
                                    f"{norms[j]:.3e}, residual = {resid[j]:.3e}")
                if by_p:
                    by_p = False  # step j again, by the solve
                else:
                    ys[j] -= self._solve(res[j])
                    np.subtract(ys[j] + ys[j], xs[j], out=xs[j + 1])
                    _, resid, norms, ok = self._guard(xs[j:j + 2], ys[j:j + 1])
                    if not ok[0]:
                        raise SolveFailure(f"midpoint solve residual {resid[0]:.3e} exceeds "
                                           f"{_SOLVE_TOL:.0e} * |x| = {_SOLVE_TOL * norms[0]:.3e}")
                    j += 1
                    yield xs[j:j + 1]
            xs[0] = xs[j]
            n_steps -= j


def _node_major(vec: np.ndarray) -> np.ndarray:
    """Field-major stacking (all of u, then all of v, ...) to node-major."""
    return vec.reshape(6, -1).T.ravel()


def _node_major_triplets(op: DiscreteOperator):
    """Nonzero (row, col, value) triplets of op.a_mat in node-major
    indices, after checking that the position rows are exactly [0 | I]."""
    n = op.n
    row, col, vals = _triplets(op.a_mat)
    field_r, node_r = np.divmod(row, n)
    field_c, node_c = np.divmod(col, n)
    row, col = 6 * node_r + field_r, 6 * node_c + field_c
    pos = row % 2 == 0
    ident = pos & (col == row + 1) & (vals == 1.0)
    if np.count_nonzero(pos) != 3 * n or np.count_nonzero(ident) != 3 * n:
        raise SolveFailure(
            "midpoint stepper needs position rows d(u, tau, R)/dt = (v, theta, M), "
            "i.e. [0 | I]")
    return row, col, vals


def _band(row, col, vals, kl, ku, size):
    """LAPACK band storage of the (row, col, value) triplets."""
    ab = np.zeros((kl + ku + 1, size), order="F")
    ab[ku + row - col, col] = vals
    return ab


def snapshot_blocks(op: DiscreteOperator, init: np.ndarray, dt: float,
                    n_steps: int, snapshot_every: int = 1):
    """The kept states of n_steps midpoint steps from the stacked state
    init, streamed: every snapshot_every-th state, starting with init
    itself, in order, as fresh field-major (rows, 6n) arrays of
    discrete1d.block_rows(n) rows each (the last block may be shorter).

    The arguments are checked here, before any step: init must be a
    finite vector of shape (6n,) (DimensionMismatch, NonFinite), and it
    is copied, so the run does not see later changes to it.  The steps
    are taken as the blocks are drawn, so a consumer that reduces each
    block and drops it never holds the whole run.  NonFinite and
    SolveFailure rise from the draw of the block whose step fails.
    """
    init = np.array(init, dtype=float)
    if init.shape != (6 * op.n,):
        raise DimensionMismatch(
            f"initial state of shape {init.shape} does not match the "
            f"operator's 6n = {6 * op.n}")
    if not np.isfinite(init).all():
        raise NonFinite("initial state contains non-finite entries")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if n_steps % snapshot_every:
        raise ValueError(
            f"n_steps = {n_steps} is not a multiple of snapshot_every = {snapshot_every}"
        )
    return _blocks(op, init, dt, n_steps, snapshot_every)


def _blocks(op, vec, dt, n_steps, snapshot_every):
    n, left = op.n, n_steps // snapshot_every + 1
    x = _node_major(vec)
    # the initial state is a chunk of its own; skip counts the states to
    # pass before the next kept one, carried across the chunks.
    # MidpointStepper is looked up as a module global at each call, so
    # that bench/tracing.py can time the factorization by rebinding it
    chunks = itertools.chain([x[None]], MidpointStepper(op, dt).states(x, n_steps)
                             if n_steps else ())
    skip, block, filled = 0, None, 0
    for chunk in chunks:
        kept = chunk[skip::snapshot_every]
        skip = (skip - len(chunk)) % snapshot_every
        while len(kept):
            if block is None:
                block, filled = np.empty((min(block_rows(n), left), vec.size)), 0
            m = min(len(kept), len(block) - filled)
            block[filled:filled + m].reshape(m, 6, n)[...] = (
                kept[:m].reshape(m, n, 6).transpose(0, 2, 1))
            kept, filled = kept[m:], filled + m
            if filled == len(block):
                yield block
                left -= len(block)
                block = None


def snapshot_times(dt: float, n_steps: int, snapshot_every: int = 1) -> np.ndarray:
    """The times j * snapshot_every * dt of the kept states of a run."""
    return np.arange(n_steps // snapshot_every + 1) * (snapshot_every * dt)


def time_reversal(x: np.ndarray) -> np.ndarray:
    """A new stacked state: x with the rate fields v, theta and m
    negated, the map S with A_bwd = -S A_fwd S."""
    out = np.array(x, dtype=float)
    rates = out.reshape(6, -1)[1::2]
    np.negative(rates, out=rates)
    return out
