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
steps by a band LU of the reduced system on the rates (or at large dt
the positions), its upper factor kept as U = U' diag(U) with U' unit
upper, so that a step's two triangular solves divide by nothing and
its solution is scaled by 1/diag(U) once; or on small grids by the
dense step matrix P = 2 (I - dt/2 A)^-1 - I, all derived from the
operator's node blocks (discrete1d.node_blocks) by this module's three
scatters of them (_dense, _band, _csr).
Only the band path imports scipy (band routines and a CSR), so
a run on small grids loads no scipy module.  Every step's backward
error on the full system is checked before its states leave, on both
paths by the node stencil of I - dt/2 A, three 6 x 6 GEMMs over the
nodes of a chunk's midpoints; a step that misses it raises
SolveFailure, and one whose norms overflow raises NonFinite, so no run
returns a non-finite snapshot.

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

from .discrete1d import DiscreteOperator, block_rows, node_blocks, row_blocks
from .errors import DimensionMismatch, NonFinite, SolveFailure

__all__ = [
    "MidpointStepper",
    "snapshot_blocks",
    "snapshot_times",
    "time_reversal",
]

# a step's normwise backward error bound (Rigal & Gaches, 1967): 16 u,
# u = 2^-53, above 10x the largest measured at dt = 1e-3 (README)
_ETA_TOL = 16 * 2.0 ** -53
_BAND = 5  # kl = ku of the node-major reduced system
_CHUNK = 32  # most steps whose residuals one guard call checks
# largest 6n whose steps apply the dense step matrix: one product, with
# its build spread over 400 steps, beats the band solve's calls
_DENSE_STEP = 168
_POSITIONS_ABOVE = 1.0  # h^2 |K| above which the band step solves for the positions


class MidpointStepper:
    """Factored midpoint stepper for repeated steps at fixed dt.

    Every operator has position rows d(u, tau, R)/dt = (v, theta, M);
    the rate rows read d(v, theta, M)/dt = K (u, tau, R) + C (v, theta, M).
    A step from the state X solves (I - h A) Y = X, h = dt/2, for the
    midpoint Y and moves to 2 Y - X.  Eliminating the positions,
    Y_pos = X_pos + h Y_rate, or the rates, Y_rate = (Y_pos - X_pos) / h,
    leaves one reduced system on the 3n rates or on the 3n positions,
    the second divided by h so that no h^2 K can overflow:

        (I - h C - h^2 K) Y_rate = X_rate + h K X_pos,
        (I / h - C - h K) Y_pos = X_pos / h - C X_pos + X_rate.

    The first loses u |X_pos| to cancellation in X_pos + h Y_rate once
    Y_pos is small, a backward error up to about u sqrt(rho), rho =
    h^2 |K| (inf-norm); the second loses u |X_pos| / h to the division,
    about u / rho.  The two meet at rho = 1 (_POSITIONS_ABOVE), so each
    stepper solves for the rates up to it and for the positions above.
    In node-major order (the six fields of node 0, then those of node 1,
    ...) the reduced matrix is banded with kl = ku = 5, its K and C band
    arrays sliced from the node blocks of the operator's stencil:
    LAPACK dgbtrf factors it once.  When it made no row interchange, the
    upper factor is split once as U = U' D, D = diag(U): U' is U's band
    with each column divided by its diagonal entry, and 1/diag(U) is
    kept.  Each step then solves with two unit-diagonal BLAS dtbsv
    calls, L and U', at a fraction of dgbtrs's per-column calls and with
    no division, and scales the solution by 1/diag(U); column scaling
    of a triangular factor keeps the solve backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 8).
    Otherwise it solves with dgbtrs.  Inside a run the
    state stays node-major, so positions and rates are the even and odd
    entries of one array, and h K X_pos or -C X_pos is one CSR product
    of the state, h K or -C built once on the position columns.
    When 6n <= _DENSE_STEP no band LU is built and no scipy module is
    loaded: the node blocks are scattered into the dense node-major A,
    I - dt/2 A is inverted once, a step is one product X+ = P X with the
    step matrix P = 2 (I - dt/2 A)^-1 - I, and its midpoint (X + X+) / 2
    is read back from the two states.  The inverse is kept for the
    refinement, since (P r + r) / 2 loses its small entries at large dt.

    A step is the solve and 2 Y - X, or the product P X, with no norm.
    Up to _CHUNK steps (and at most a block of states, block_rows) are
    checked at once on the full system: the normwise backward error of
    Y, |r| / (|I - dt/2 A| |Y| + |X|) with r = (I - dt/2 A) Y - X and
    inf-norms, within _ETA_TOL, next state's square finite.  The
    operator is a node stencil (DiscreteOperator), so the midpoints
    are kept node-major with a zero ghost node at each end of a row, and
    (I - dt/2 A) Y for the whole chunk is three GEMMs of its (nodes, 6)
    rows with the stencil's 6 x 6 blocks, on both paths.  Any summation
    order of r has the same error class (Higham, ch. 3), so the bound
    holds alike.
    States are yielded only from a passing chunk, as one (m, 6n) view of
    its states.  At the first failing step the
    states before it are yielded; then NonFinite if X . X, r . r or the
    next state's square is not finite, so no non-finite state leaves,
    else one refinement pass by the solve follows, after which the step
    passes and the run goes on from it, or SolveFailure.  The steps
    after a refined one are redone from it: the next chunk is one step,
    and each passing chunk doubles the next back up to _CHUNK, so a run
    refined at every step redoes one step per refinement, not a chunk.
    Construction raises SolveFailure when the position rows are not
    [0 | I], when |I - dt/2 A| overflows, when the reduced matrix (band
    path) or I - dt/2 A (dense path) is singular, or when U' or
    1/diag(U) (band path) or (I - dt/2 A)^-1 or P (dense path) is not
    finite; a node stencil keeps every row inside the band.
    """

    def __init__(self, op: DiscreteOperator, dt: float):
        if not (dt > 0 and math.isfinite((dt / 2) * (dt / 2))):
            raise ValueError(f"dt must be positive with (dt/2)^2 finite, got {dt}")
        self.op = op
        self.dt = float(dt)
        self._half = 0.5 * self.dt
        position = np.zeros((3, 3, 6))  # rows u, tau, R: v, theta, M of the node
        position[1, [0, 1, 2], [1, 3, 5]] = 1.0
        if not np.array_equal(op.stencil[:, 0::2], position):
            raise SolveFailure(
                "midpoint stepper needs position rows d(u, tau, R)/dt = (v, theta, M), "
                "i.e. [0 | I]")
        self._norm = _midpoint_norm(op.stencil, op.n, self.dt)
        if not math.isfinite(self._norm):
            raise SolveFailure(f"|I - dt/2 A| = {self._norm} is not a finite float")
        lhs = np.zeros((3, 6, 6))  # the stencil of I - dt/2 A
        lhs[1] = np.eye(6)
        lhs -= self._half * op.stencil
        # its blocks transposed, the right factors of the guard's GEMMs,
        # copied to C order: numpy's matmul is slower on the views
        self._stencil = np.ascontiguousarray(lhs.transpose(0, 2, 1))
        blocks = node_blocks(op.stencil, op.n)
        if 6 * op.n <= _DENSE_STEP:
            try:
                inv = np.linalg.inv(np.eye(6 * op.n) - self._half * _dense(blocks))
            except np.linalg.LinAlgError as exc:
                raise SolveFailure(
                    f"midpoint matrix could not be factored: {exc}") from None
            with np.errstate(over="ignore"):
                self._inv, self._p = inv, 2.0 * inv - np.eye(6 * op.n)
            if not np.isfinite(self._p).all():  # nor, then, is the inverse
                raise SolveFailure("midpoint matrix could not be factored: (I - dt/2 A)^-1 "
                                   "or P = 2 (I - dt/2 A)^-1 - I is not finite")
            return
        from scipy.linalg import blas, lapack  # the band path alone loads scipy

        self._inv = self._p = None
        self._dtbsv, self._dgbtrs = blas.dtbsv, lapack.dgbtrs
        size = 3 * op.n
        # the reduced rate rows: K on the position columns, C on the rate ones
        k_blocks, c_blocks = blocks[:, :, 1::2, 0::2], blocks[:, :, 1::2, 1::2]
        k_rows = row_blocks(op.stencil, op.n)[:, :, 1::2, 0::2]
        self._positions = (self._half ** 2 * float(np.abs(k_rows).sum(axis=(1, 3)).max())
                           > _POSITIONS_ABOVE)
        # the right-hand side's product, rate rows by position columns:
        # -C for the positions' solve, h K for the rates'
        rhs = np.zeros_like(blocks)
        rhs[:, :, 1::2, 0::2] = -c_blocks if self._positions else k_blocks * self._half
        self._rhs = _csr(rhs)[1::2]
        # dgbtrf keeps its row interchanges in _BAND extra top rows
        lhs = np.zeros((3 * _BAND + 1, size), order="F")
        if self._positions:  # I / h - C - h K
            lhs[_BAND:] = -_band(c_blocks) - self._half * _band(k_blocks)
            lhs[2 * _BAND] += 1.0 / self._half
        else:  # I - h C - h^2 K
            lhs[_BAND:] = -self._half * _band(c_blocks) - self._half ** 2 * _band(k_blocks)
            lhs[2 * _BAND] += 1.0
        self._lu, self._piv, info = lapack.dgbtrf(lhs, _BAND, _BAND, overwrite_ab=1)
        if info != 0:
            raise SolveFailure(
                f"midpoint matrix could not be factored: dgbtrf info = {info}")
        # without a row interchange U keeps the band ku = _BAND: a solve
        # is the unit L, its multipliers in the _BAND rows under U's
        # diagonal row (which a unit solve never reads), then the unit U'
        # of U = U' diag(U), and a product with 1/diag(U)
        self._triangular = None
        if np.array_equal(self._piv, np.arange(size)):
            upper = self._lu[_BAND:2 * _BAND + 1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                unit, inv_diag = np.asfortranarray(upper / upper[-1]), 1.0 / upper[-1]
            if not (np.isfinite(unit).all() and np.isfinite(inv_diag).all()):
                raise SolveFailure(
                    "midpoint matrix could not be factored: its unit upper factor or "
                    "1/diag(U) is not finite")
            self._triangular = (np.asfortranarray(self._lu[2 * _BAND:]), unit, inv_diag)

    def _step(self, x: np.ndarray, out: np.ndarray):
        """The dense path's step: out = P x, P = 2 (I - dt/2 A)^-1 - I."""
        np.dot(self._p, x, out=out)

    def _solve(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out, the node-major solution of (I - dt/2 A) out = r, dense or
        by the reduced system."""
        if self._inv is not None:
            return np.dot(self._inv, r, out=out)
        b = self._rhs @ r
        if self._positions:  # x_p / h - C x_p + x_r
            b += r[0::2] / self._half
            b += r[1::2]
        else:  # x_r + h K x_p
            b += r[1::2]
        if self._triangular is None:
            w = self._dgbtrs(self._lu, _BAND, _BAND, b, self._piv, overwrite_b=1)[0]
        else:
            lower, unit, inv_diag = self._triangular
            w = self._dtbsv(_BAND, lower, b, lower=1, diag=1, overwrite_x=1)
            w = self._dtbsv(_BAND, unit, w, diag=1, overwrite_x=1)
            w *= inv_diag
        if self._positions:  # y_r = (y_p - x_p) / h
            out[0::2] = w
            w -= r[0::2]
            np.divide(w, self._half, out=out[1::2])
        else:  # y_p = x_p + h y_r
            out[1::2] = w
            w *= self._half
            np.add(r[0::2], w, out=out[0::2])
        return out

    def _guard(self, xs: np.ndarray, ys: np.ndarray, res: np.ndarray):
        """Residuals r_k = (I - dt/2 A) ys[k] - xs[k], written into res,
        the squares xs[k] . xs[k] (one row more than ys), the bounds
        _ETA_TOL (|I - dt/2 A| |ys[k]| + |xs[k]|) and whether each step
        passes: |r_k| within its bound (inf-norms), xs[k + 1] . xs[k + 1]
        finite.  The rows of ys and res are node-major with a zero ghost
        node at each end, (m, 6(n + 2)), so that r is the stencil's three
        GEMMs on all their nodes at once; res keeps zero ghost nodes."""
        m, n = len(ys), self.op.n
        y, r = ys.reshape(-1, 6), res.reshape(-1, 6)
        left, centre, right = self._stencil
        np.matmul(y[1:-1], centre, out=r[1:-1])
        r[1:-1] += y[:-2] @ left
        r[1:-1] += y[2:] @ right
        nodes = r.reshape(m, n + 2, 6)
        nodes[:, 1:-1] -= xs[:-1].reshape(m, n, 6)
        nodes[:, 0] = nodes[:, -1] = 0.0
        squares = np.vecdot(xs, xs)
        bound = _ETA_TOL * (self._norm * np.abs(ys).max(axis=1) + np.abs(xs[:-1]).max(axis=1))
        return res, squares, bound, (np.abs(res).max(axis=1) <= bound) & np.isfinite(squares[1:])

    def states(self, x: np.ndarray, n_steps: int):
        """The n_steps midpoint steps from the node-major state x, in
        order, as chunks: (m, 6n) views of the states of m passing steps,
        in a buffer that later draws overwrite, so copy what to keep."""
        rows = min(_CHUNK, block_rows(self.op.n))
        xs = np.empty((rows + 1, x.size))  # a chunk's states x_0 .. x_m
        # its midpoints y_0 .. y_{m-1}, each row with a zero ghost node at
        # either end (_guard), steps writing the nodes between, and their
        # residuals, whose ghost nodes _guard zeroes
        ys = np.zeros((rows, x.size + 12))
        rs = np.empty_like(ys)
        inner = ys[:, 6:-6]
        xs[0] = x
        x_rows, y_rows = list(xs), list(inner)  # views, indexed faster than the arrays
        size = rows
        while n_steps:
            m = min(size, n_steps)
            if self._p is not None:
                step = self._step
                for k in range(m):
                    step(x_rows[k], x_rows[k + 1])
                np.add(xs[:m], xs[1:m + 1], out=inner[:m])
                inner[:m] *= 0.5
            else:
                solve = self._solve
                for k in range(m):
                    y, x_next = solve(x_rows[k], y_rows[k]), x_rows[k + 1]
                    np.add(y, y, out=x_next)
                    x_next -= x_rows[k]
            res, squares, _, ok = self._guard(xs[:m + 1], ys[:m], rs[:m])
            j = m if ok.all() else int(ok.argmin())  # the first failing step
            if j:
                yield xs[1:j + 1]
            size = min(2 * size, rows) if j == m else 1
            if j < m:
                r_sq = np.vecdot(res[j], res[j])
                if not np.isfinite([squares[j], r_sq, squares[j + 1]]).all():
                    raise NonFinite(f"midpoint step left the float range: |x| = "
                                    f"{np.sqrt(squares[j]):.3e}, residual = {np.sqrt(r_sq):.3e}")
                inner[j] -= self._solve(res[j, 6:-6], np.empty_like(xs[j]))
                np.add(inner[j], inner[j], out=xs[j + 1])
                xs[j + 1] -= xs[j]
                res, _, bound, ok = self._guard(xs[j:j + 2], ys[j:j + 1], rs[j:j + 1])
                if not ok[0]:
                    raise SolveFailure(
                        f"midpoint step residual {np.abs(res[0]).max():.3e} exceeds its "
                        f"backward-error bound 16u (|I - dt/2 A| |y| + |x|) = {bound[0]:.3e}")
                j += 1
                yield xs[j:j + 1]
            xs[0] = xs[j]
            n_steps -= j


def _midpoint_norm(stencil: np.ndarray, n: int, dt: float) -> float:
    """|I - dt/2 A|, the inf-norm on n nodes, summed from the node
    blocks (row_blocks) of the stencil of A; inf when it overflows."""
    with np.errstate(over="ignore"):
        lhs = -(0.5 * dt) * row_blocks(stencil, n)
        lhs[:, 1] += np.eye(6)  # the diagonal block
        return float(np.abs(lhs).sum(axis=(1, 3)).max())


def _dense(blocks: np.ndarray) -> np.ndarray:
    """The dense node-major (6n, 6n) matrix of node blocks, scattered
    with no sparse matrix built."""
    n, j = len(blocks), np.arange(len(blocks))
    out = np.zeros((n, 6, n + 2, 6))  # column nodes -1 .. n
    for s in range(3):
        out[j, :, j + s] = blocks[:, s]
    return out[:, :, 1:-1].reshape(6 * n, 6 * n)


def _csr(blocks: np.ndarray) -> "scipy.sparse.csr_matrix":
    """The node-major CSR matrix of node blocks, only the nonzero entries,
    columns ascending, built with no COO step.  scipy.sparse is imported
    here, so that only the band path loads it."""
    import scipy.sparse as sp

    n = len(blocks)
    # 18 entries a row in column order: axes (node, field, offset, field)
    ordered = np.ascontiguousarray(blocks.transpose(0, 2, 1, 3))
    at = np.flatnonzero(ordered)
    row, rest = np.divmod(at, 18)
    indptr = np.zeros(6 * n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=6 * n), out=indptr[1:])
    return sp.csr_matrix((ordered.ravel()[at], row - row % 6 + rest - 6, indptr),
                         shape=(6 * n, 6 * n))


def _by_node(vec: np.ndarray) -> np.ndarray:
    """Field-major stacking (all of u, then all of v, ...) to node-major."""
    return vec.reshape(6, -1).T.ravel()


def _band(blocks: np.ndarray) -> np.ndarray:
    """LAPACK band storage, kl = ku = _BAND, of the 3n x 3n matrix of
    (n, 3, 3, 3) node blocks: entry (a, b) of block (j, s) is at row
    3j + a and column 3(j + s) + b, in band row _BAND + a - b - 3s."""
    n = len(blocks)
    # a node of zero columns padded on either side, for the end blocks
    ab = np.zeros((2 * _BAND + 1, 3 * n + 6))
    for s, a, b in itertools.product(range(3), repeat=3):
        ab[_BAND + a - b - 3 * (s - 1), 3 * s + b::3][:n] = blocks[:, s, a, b]
    return np.asfortranarray(ab[:, 3:-3])


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
    x = _by_node(vec)
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
