"""Time integration of the forward and time-reversed systems.

The integrator of record is the implicit midpoint rule

    (I - dt/2 A) U_{k+1} = (I + dt/2 A) U_k

which is exact on the quadratic invariant of the skew part of G A: for
conservative moduli the discrete energy is constant to round-off, and
with dissipation the per-step balance

    E_{k+1} - E_k = -dt * D((U_k + U_{k+1}) / 2)

holds exactly, D being the gradient-rate quadrature.  MidpointStepper
eliminates the three position fields, whose rows are the identities
d(u, tau, R)/dt = (v, theta, M), and solves the remaining banded system
on the rates with a LAPACK band LU factored once per run.  Every step
checks the residual of the full system; a step that misses it raises
SolveFailure, and a step whose norms overflow raises NonFinite, so no
run returns a non-finite snapshot.

The time-reversed problem is integrated forward in its own time
variable with its own operator (assemble_backward), not by negating dt.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .discrete1d import DiscreteOperator, State1D
from .errors import DimensionMismatch, NonFinite, SolveFailure

__all__ = [
    "Trajectory",
    "MidpointStepper",
    "run_forward",
    "time_reversal",
]

_SOLVE_TOL = 1e-12
_BAND = 5  # kl = ku of the node-major reduced rate system


@dataclass(frozen=True)
class Trajectory:
    """The kept states of one run.

    states[j] is the stacked field-major state (u, v, tau, theta, r, m)
    at times[j] = j * snapshot_every * dt, one (n_snapshots, 6n) array;
    states[0] is the initial state and traj[j] the State1D of row j.
    dt is the integration step.
    """

    times: np.ndarray
    states: np.ndarray
    dt: float
    snapshot_every: int = 1

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if (times.ndim != 1 or states.ndim != 2 or len(states) != times.size
                or states.shape[1] % 6):
            raise DimensionMismatch(
                f"need times (n,) and states (n, 6m), got {times.shape} and {states.shape}")
        if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing and start at 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, j) -> State1D:
        return State1D.from_vector(self.states[j])


class MidpointStepper:
    """Factored midpoint stepper for repeated steps at fixed dt.

    Every operator has position rows d(u, tau, R)/dt = (v, theta, M);
    the rate rows read d(v, theta, M)/dt = K (u, tau, R) + C (v, theta, M).
    With R = (I + dt/2 A) U the midpoint right-hand side, eliminating
    the positions, pos+ = R_pos + dt/2 W+, leaves the reduced system

        (I - dt/2 C - dt^2/4 K) W+ = R_rate + dt/2 K R_pos

    on the 3n rate unknowns W+.  In node-major order (the six fields of
    node 0, then those of node 1, ...) the reduced matrix is banded
    with kl = ku = 5: LAPACK dgbtrf factors it once, and each step
    solves with dgbtrs.  Inside a run the state stays node-major, so
    positions and rates are the even and odd entries of one array, and
    the products with A and K are BLAS dgbmv calls on band storage.

    Each step checks the residual of the full 6n system against 1e-12
    relative, applying one pass of iterative refinement before raising
    SolveFailure.  When the norm of the right-hand side or of the
    residual is not finite, the guard cannot be evaluated: the step
    raises NonFinite, so an overflowing run stops at its first such step
    and never yields a NaN state.
    Construction raises SolveFailure when the position rows are not
    [0 | I], when a rate row reaches past the band, or when the reduced
    matrix is singular.
    """

    def __init__(self, op: DiscreteOperator, dt: float):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.op = op
        self.dt = float(dt)
        self._half = 0.5 * self.dt
        row, col, vals = _node_major_triplets(op)
        self._a_kl = int(max(0, (row - col).max()))
        self._a_ku = int(max(0, (col - row).max()))
        self._a_band = _band(row, col, vals, self._a_kl, self._a_ku, 6 * op.n)

        # reduced rate system: node-major index // 2, K on the even
        # (position) columns, C on the odd (rate) columns
        rate = row % 2 == 1
        i, j, vals = row[rate] // 2, col[rate] // 2, vals[rate]
        on_rate = col[rate] % 2 == 1
        if np.abs(i - j).max(initial=0) > _BAND:
            raise SolveFailure(
                f"rate rows of the operator are wider than the band "
                f"kl = ku = {_BAND} of the reduced system")
        size = 3 * op.n
        self._k_band = _band(i[~on_rate], j[~on_rate], vals[~on_rate], _BAND, _BAND, size)
        c_band = _band(i[on_rate], j[on_rate], vals[on_rate], _BAND, _BAND, size)
        # dgbtrf keeps its row interchanges in _BAND extra top rows
        lhs = np.zeros((3 * _BAND + 1, size), order="F")
        lhs[_BAND:] = -self._half * c_band - self._half ** 2 * self._k_band
        lhs[2 * _BAND] += 1.0
        self._lu, self._piv, info = lapack.dgbtrf(lhs, _BAND, _BAND, overwrite_ab=1)
        if info != 0:
            raise SolveFailure(
                f"midpoint matrix could not be factored: dgbtrf info = {info}")

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a node-major state x."""
        return blas.dgbmv(x.size, x.size, self._a_kl, self._a_ku, 1.0,
                          self._a_band, x)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """Node-major solution of (I - dt/2 A) out = r by the reduced system."""
        size = r.size // 2
        b = blas.dgbmv(size, size, _BAND, _BAND, self._half, self._k_band, r,
                       incx=2, beta=1.0, y=r[1::2].copy(), overwrite_y=1)
        rate = lapack.dgbtrs(self._lu, _BAND, _BAND, b, self._piv, overwrite_b=1)[0]
        out = np.empty_like(r)
        out[1::2] = rate
        out[0::2] = r[0::2] + self._half * rate
        return out

    def _residual(self, out: np.ndarray, rhs: np.ndarray):
        """A out, the full residual (I - dt/2 A) out - rhs, and its norm."""
        a_out = self._apply(out)
        res = out - self._half * a_out
        res -= rhs
        return a_out, res, math.sqrt(res @ res)

    def _advance(self, x: np.ndarray, a_x: np.ndarray):
        """One step from the node-major state x, given a_x = A x; returns
        the new state and A applied to it, which the next step reuses."""
        rhs = x + self._half * a_x
        scale = math.sqrt(rhs @ rhs)
        out = self._solve(rhs)
        a_out, res, resid = self._residual(out, rhs)
        if not (math.isfinite(scale) and math.isfinite(resid)):
            raise NonFinite(
                f"midpoint step left the float range: |rhs| = {scale:.3e}, "
                f"residual = {resid:.3e}")
        if resid > _SOLVE_TOL * scale:
            out -= self._solve(res)
            a_out, _, resid = self._residual(out, rhs)
            if not resid <= _SOLVE_TOL * scale:
                raise SolveFailure(
                    f"midpoint solve residual {resid:.3e} exceeds "
                    f"{_SOLVE_TOL:.0e} * |rhs| = {_SOLVE_TOL * scale:.3e}"
                )
        return out, a_out

    def states(self, x: np.ndarray):
        """The successive midpoint steps from the node-major state x, as
        new node-major arrays, without end."""
        a_x = self._apply(x)
        while True:
            x, a_x = self._advance(x, a_x)
            yield x


def _node_major(vec: np.ndarray) -> np.ndarray:
    """Field-major stacking (all of u, then all of v, ...) to node-major."""
    return vec.reshape(6, -1).T.ravel()


def _field_major(x: np.ndarray) -> np.ndarray:
    """Node-major stacking back to field-major."""
    return x.reshape(-1, 6).T.ravel()


def _node_major_triplets(op: DiscreteOperator):
    """Nonzero (row, col, value) triplets of op.a_mat in node-major
    indices, after checking that the position rows are exactly [0 | I]."""
    n = op.n
    a = sp.coo_matrix(op.a_mat)
    a.sum_duplicates()
    nonzero = a.data != 0.0
    field_r, node_r = np.divmod(a.row[nonzero], n)
    field_c, node_c = np.divmod(a.col[nonzero], n)
    row, col, vals = 6 * node_r + field_r, 6 * node_c + field_c, a.data[nonzero]
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


def run_forward(op: DiscreteOperator, init: State1D, dt: float,
                n_steps: int, snapshot_every: int = 1) -> Trajectory:
    """Integrate n_steps midpoint steps from init, keeping every
    snapshot_every-th state (plus the initial one).

    Deterministic: identical inputs give bitwise-identical snapshots.
    """
    if init.n != op.grid.n_interior:
        raise DimensionMismatch(
            f"initial data has {init.n} nodes, operator grid has {op.grid.n_interior}"
        )
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if n_steps % snapshot_every:
        raise ValueError(
            f"n_steps = {n_steps} is not a multiple of snapshot_every = {snapshot_every}"
        )

    vec = init.to_vector()
    kept = np.empty((n_steps // snapshot_every + 1, vec.size))
    kept[0] = vec
    if n_steps:
        # looked up as a module global at each call, so that
        # bench/tracing.py can time the factorization by rebinding it
        states = MidpointStepper(op, dt).states(_node_major(vec))
        for k, state in zip(range(1, n_steps + 1), states):
            if k % snapshot_every == 0:
                kept[k // snapshot_every] = _field_major(state)
    times = np.arange(len(kept)) * (snapshot_every * dt)
    return Trajectory(times=times, states=kept, dt=float(dt),
                      snapshot_every=int(snapshot_every))


def time_reversal(s: State1D) -> State1D:
    """Flip the rate fields (v, theta, m); the map S with
    A_bwd = -S A_fwd S."""
    return State1D(s.u, -s.v, s.tau, -s.theta, s.r, -s.m)
