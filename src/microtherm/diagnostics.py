"""Verification quantities: energies, dissipation, spectra,
time-reversed functionals and the non-extinction probe.

Every energy-type quantity is one of the operator's quadratic forms
(discrete1d.form_tables), evaluated on an array of stacked states at
once by discrete1d.form_values (energy_table: the energy, its terms
and the dissipation rate), or block by block along a streamed run by
reduce_blocks.  The same tables define the Gram matrix G and
the dissipation matrix Q (discrete1d.form_stencil), so the structural
identities hold at round-off level rather than discretization level:

* the total column of energy_table is exactly half the squared Gram
  norm;
* sym(G A) = -Q, so the dissipation_rate form equals -U^T G A U
  (dissipativity_residual measures the matrix identity by 6 x 6 block
  products of the node blocks);
* along midpoint trajectories E_{k+1} - E_k = -dt * D(midpoint state)
  exactly.

The dense spectrum uses the grid's mirror symmetry.  Reversing the
nodes (J) commutes with the Laplacian and anticommutes with the
centered gradient, and the gradient blocks of A are exactly those that
couple (v, M) with theta, so A commutes with R = diag(J, J, -J, -J, J, J)
entry for entry.  The +1 and -1 eigenspaces of R are then invariant
under A, and A restricted to each is a similarity P A F with P F = I
whose entries are sums of two entries of A, scattered from the node
blocks of A (mirror_blocks): the spectrum is the union of two
eigensolves of about 3n, with no change to the discretization.
spectral_report checks R A R == A exactly on A's stencil before it
splits.  From 6n = _THREADED_SECTORS up, the two sectors are solved on
two threads (numpy's eigvals releases the GIL).
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discrete1d import (FORMS, DiscreteOperator, _form_kernel, form_stencil, form_values,
                         node_blocks, row_blocks)
from .errors import (DimensionMismatch, EigenFailure, IndefiniteForm, NonFinite,
                     SizeLimit, SolveFailure)
from .evolve import snapshot_blocks, time_reversal

__all__ = [
    "SpectralReport",
    "BackwardFunctionals",
    "LocalizationReport",
    "energy_table",
    "balance_residuals",
    "reduce_blocks",
    "dissipativity_residual",
    "spectral_report",
    "backward_functionals",
    "localization_probe",
]

DENSE_LIMIT = 3000        # largest 6n for the dense spectrum
# least 6n whose two mirror sectors are solved on two threads: below it
# the two eigvals calls were measured not to overlap with one BLAS thread
# (the README gives the times).  From here up the runner also overlaps
# consecutive spectrum and dispersion tasks (runner.run_scenario)
_THREADED_SECTORS = 1056
# sign of each field, in FIELDS order, under the node reversal of R
_FIELD_PARITY = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_GRONWALL_FLOOR = 1e-300  # guards 0/0 in the Gronwall ratio
# the energy_table columns: the energy, its seven terms, the rate quadrature
_BREAKDOWN = FORMS[:9]


def energy_table(op: DiscreteOperator, states) -> np.ndarray:
    """The energy, its seven terms and the dissipation rate of every
    row of states, (n_rows, 6n): an (n_rows, 9) array whose columns are
    the first nine FORMS, total first and dissipation_rate last."""
    return form_values(op, states, _BREAKDOWN)


def balance_residuals(table: np.ndarray, rates: np.ndarray, dt_snap: float) -> np.ndarray:
    """E_{k+1} - E_k + dt_snap * rates[k] for the energies table[:, 0]
    of an energy table, rates[k] the dissipation rate over step k.

    With the rates D((U_k + U_{k+1}) / 2) of consecutive midpoint
    states (reduce_blocks with midpoints=True) the balance holds
    exactly, at round-off."""
    return np.diff(table[:, 0]) + dt_snap * rates


def reduce_blocks(blocks, op: DiscreteOperator, forms=_BREAKDOWN,
                  midpoints: bool = False):
    """Reduce a run streamed as blocks of kept states
    (evolve.snapshot_blocks) while each block is at hand.

    Returns (table, rates, first, last): the named forms of every kept
    state (form_values; by default the energy_table columns), with
    midpoints=True the dissipation rates D((U_k + U_{k+1}) / 2) at the
    averages of consecutive states (else None), and the first and last
    state.  Only one row is kept across each block boundary, for the
    midpoint that straddles it, and a midpoint averages only the fields
    that the rate reads (theta and M; none for conservative moduli).  A
    state's values do not depend on the block it came in, so a run's
    states given as one block reduce to the same numbers.
    """
    values = _form_kernel(op, forms)
    rate_values = _form_kernel(op, ("dissipation_rate",)) if midpoints else None
    tables, rates = [], []
    first = last = None
    for block in blocks:
        tables.append(values(block))
        if midpoints:
            pairs = block if last is None else np.concatenate([last[None], block])
            rates.append(rate_values(pairs, midpoints=True)[:, 0])
        if first is None:
            first = block[0].copy()
        last = block[-1].copy()
    return (np.concatenate(tables), np.concatenate(rates) if midpoints else None,
            first, last)


def dissipativity_residual(op: DiscreteOperator) -> float:
    """Relative residual max|sym(G A) + Q| / max|G A| of the discrete
    dissipativity identity, Q the matrix of the dissipation_rate form.

    The identity says dE/dt = U^T G A U = -D(U) for every state U, the
    step that makes the generator dissipative once Q is positive
    semidefinite.  It is checked on node blocks (row_blocks) by 6 x 6
    block products, so it needs no probe states and no dense matrix.
    """
    g = row_blocks(form_stencil(op, "total", 2.0), op.n)
    n = len(g)
    a = np.zeros((n + 2, 3, 6, 6))  # A with a zero node padded on either side
    a[1:-1] = row_blocks(op.stencil, op.n)
    # G A is block pentadiagonal, its block (j, t - 2) the sum of
    # G[j, s - 1] A[j + s - 1, t - s - 1]; two zero nodes padded on either side
    g_a = np.zeros((n + 4, 5, 6, 6))
    for s, t in itertools.product(range(3), range(3)):
        g_a[2:-2, s + t] += g[:, s] @ a[s:s + n, t]
    # sym(G A) + Q is symmetric, so its blocks at offsets 0, 1, 2 hold every entry
    resid = 0.5 * np.stack([g_a[2:-2, t] + g_a[t:t + n, 4 - t].transpose(0, 2, 1)
                            for t in range(2, 5)], axis=1)
    resid[:, :2] += row_blocks(form_stencil(op, "dissipation_rate"), op.n)[:, 1:]
    return float(np.abs(resid).max() / np.abs(g_a).max())


@dataclass(frozen=True)
class SpectralReport:
    """Dense spectrum of the generator: eigenvalues sorted by (real, imag) and
    the spectral abscissa, their largest real part."""

    eigenvalues: np.ndarray
    spectral_abscissa: float


def spectral_report(op: DiscreteOperator) -> SpectralReport:
    """The dense spectrum of the generator, solved as the spectra of its
    two mirror sectors (mirror_blocks); raises EigenFailure when it lacks
    the mirror symmetry or an eigensolve does not converge.

    Both blocks are built on the calling thread.  From 6n =
    _THREADED_SECTORS up, one worker thread solves the -1 sector while
    the calling thread solves the +1 sector (the larger for odd n), and
    it is joined before this returns or raises; below it, where two
    eigensolves were measured not to overlap, both run here one after
    the other.  The eigenvalues are the same floats.
    """
    size = 6 * op.n
    if size > DENSE_LIMIT:
        raise SizeLimit(
            f"dense spectrum limited to 6n <= {DENSE_LIMIT} (two eigensolves "
            f"of about 3n each), got 6n = {size}"
        )
    blocks = mirror_blocks(op.stencil, op.n)
    try:
        if size < _THREADED_SECTORS:
            lams = [np.linalg.eigvals(block) for block in blocks]
        else:
            with ThreadPoolExecutor(max_workers=1) as pool:
                minus = pool.submit(np.linalg.eigvals, blocks[1])
                lams = [np.linalg.eigvals(blocks[0]), minus.result()]
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"dense eigensolve failed: {exc}") from exc
    lams = np.concatenate(lams)
    order = np.lexsort((lams.imag, lams.real))
    return SpectralReport(eigenvalues=lams[order],
                          spectral_abscissa=float(lams.real.max()))


def mirror_blocks(stencil: np.ndarray, n: int) -> list:
    """The dense blocks P A F, on the +1 and -1 eigenspaces of
    R = diag(J, J, -J, -J, J, J), J the reversal of the n nodes, of the
    generator A with node stencil stencil (DiscreteOperator.stencil).

    A field of sign s in a sector is even (s = +1) or odd (s = -1) in
    its nodes and keeps its first ceil(n/2) or floor(n/2) of them (in
    field-major order), an odd field being zero at the middle node of
    odd n.  F has the columns e_i + s e_mirror(i) (e_i alone for a middle
    node) and P picks the kept rows, so P F = I.  An entry of a kept row
    goes to its kept node's column, or times s to its mirror's, so each
    block entry is one float sum of at most two entries of A.  Raises
    EigenFailure unless R A R == A exactly, stencil[1 + s] ==
    Pi stencil[1 - s] Pi with Pi the field parities.
    """
    if not np.array_equal(stencil[::-1] * np.multiply.outer(_FIELD_PARITY, _FIELD_PARITY),
                          stencil):
        raise EigenFailure("generator does not commute with the node reversal, "
                           "so its spectrum does not split into mirror sectors")
    a_blocks = node_blocks(stencil, n)
    half = (n + 1) // 2  # the kept nodes of an even field, the middle one included
    # the offsets and field pairs that A holds, at the rows of the kept nodes
    s, a, b = np.nonzero(a_blocks[:half].any(axis=0))
    vals, node = a_blocks[:half, s, a, b], np.arange(half)[:, None]
    col = node + (s - 1)  # the column's node
    blocks = []
    for sign in (_FIELD_PARITY, -_FIELD_PARITY):
        kept = np.where(sign > 0, half, n // 2)  # kept nodes per field
        at = np.cumsum(kept) - kept  # a field's first place in the block
        block = np.zeros((kept.sum(),) * 2)
        row, direct_col, folded_col = at[a] + node, at[b] + col, at[b] + (n - 1 - col)
        on_row = node < kept[a]
        direct = on_row & (col >= 0) & (col < kept[b])
        block[row[direct], direct_col[direct]] = vals[direct]
        folded = on_row & (2 * col > n - 1)
        block[row[folded], folded_col[folded]] += (sign[b] * vals)[folded]
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class BackwardFunctionals:
    """The three time-reversed functionals, their running integral and
    the measured Gronwall constant.

    e1 is the plain energy; e2 flips the sign of the thermal and
    microthermal contributions and drops the elastic-microthermal
    cross term; e3 mixes displacements with rates and adds the rate
    tensors contracted with non-rate gradients.  cal_e(t) is the
    trapezoid integral of eps*e1 + e2 + lam*e3 from 0 to t; gronwall_k
    is the largest centered-difference ratio cal_e'/(4 cal_e).
    """

    times: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    cal_e: np.ndarray
    gronwall_k: float
    eps: float
    lam: float


def backward_functionals(times: np.ndarray, forms: np.ndarray, op: DiscreteOperator,
                         eps: float = 0.5, lam: float = 2.0) -> BackwardFunctionals:
    """Evaluate the time-reversed uniqueness functionals along a run.

    times are the run's kept times (evolve.snapshot_times) and forms its
    form_values table, one row of the FORMS columns per kept state: for
    a streamed run, the table of reduce_blocks(blocks, op, FORMS).

    Requires (eps, lam) to make the gradient form

        [lam*h_cond + (eps-2)*k_cond] |tau'|^2
      + [lam*m_rr_rate + (eps-2)*m_rr] |R'|^2

    positive definite; raises IndefiniteForm otherwise (conservative
    moduli admit no such pair since both rate coefficients vanish).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m = op.moduli
    coeff_tau = lam * m.h_cond + (eps - 2.0) * m.k_cond
    coeff_r = lam * m.m_rr_rate + (eps - 2.0) * m.m_rr
    if not (coeff_tau > 0 and coeff_r > 0):
        raise IndefiniteForm(
            "quadratic form is not positive definite: "
            f"lam*h_cond + (eps-2)*k_cond = {coeff_tau}, "
            f"lam*m_rr_rate + (eps-2)*m_rr = {coeff_r}"
        )
    times = np.asarray(times, dtype=float)
    if forms.shape != (times.size, len(FORMS)):
        raise DimensionMismatch(
            f"need one row of the {len(FORMS)} forms per time ({times.size}), "
            f"got a table of shape {forms.shape}")

    values = dict(zip(FORMS, forms.T))
    e1 = values["total"]
    e2 = (values["kinetic"] - values["thermal"] - values["microthermal"]
          + values["elastic"] - values["tau_gradient"] - values["r_gradient"])
    e3 = values["e3"]
    n_snap = times.size

    integrand = eps * e1 + e2 + lam * e3
    cal_e = np.zeros(n_snap)
    if n_snap > 1:
        steps = np.diff(times)
        cal_e[1:] = np.cumsum(0.5 * steps * (integrand[1:] + integrand[:-1]))

    gronwall_k = 0.0
    if n_snap > 1:
        rate = np.gradient(cal_e, times)
        mask = cal_e > _GRONWALL_FLOOR
        if mask.any():
            gronwall_k = float(np.max(rate[mask] / (4.0 * cal_e[mask])))

    return BackwardFunctionals(times=times, e1=e1, e2=e2, e3=e3,
                               cal_e=cal_e, gronwall_k=gronwall_k,
                               eps=float(eps), lam=float(lam))


@dataclass(frozen=True)
class LocalizationReport:
    """Finite-time-extinction probe.

    trivial: the initial state was identically zero (E == 0 throughout,
    nothing to certify).  min_energy_ratio: min over the run of
    E(t)/E(0).  energy_positive: E(t) > 0 at every step.
    round_trip_error: max-abs mismatch after flipping the rates of the
    run's final state, integrating the time-reversed operator as many
    steps back and flipping again; inf when the reversed run overflows
    or its solve misses the residual guard (strong dissipation
    amplifies round-off beyond float range).
    """

    trivial: bool
    min_energy_ratio: float
    energy_positive: bool
    round_trip_error: float


def localization_probe(op_bwd: DiscreteOperator, first: np.ndarray, last: np.ndarray,
                       dt: float, energies: np.ndarray) -> LocalizationReport:
    """Probe a forward run of len(energies) - 1 midpoint steps of dt for
    finite-time extinction.

    first and last are the run's first and last state (6n vectors) and
    energies its energy at every step, such as the table[:, 0], first
    and last that reduce_blocks returns for an every-step run.  The probe
    reads them and runs only the time-reversed half itself.
    """
    n_steps = len(energies) - 1
    if not first.any():
        return LocalizationReport(trivial=True, min_energy_ratio=float("nan"),
                                  energy_positive=False, round_trip_error=0.0)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            *_, back = snapshot_blocks(op_bwd, time_reversal(last), dt, n_steps,
                                       snapshot_every=max(n_steps, 1))
            recovered = time_reversal(back[-1])
            err = float(np.abs(recovered - first).max())
    except (NonFinite, SolveFailure):
        err = float("inf")
    round_trip = err if math.isfinite(err) else float("inf")

    return LocalizationReport(
        trivial=False,
        min_energy_ratio=float((energies / energies[0]).min()),
        energy_positive=bool((energies > 0.0).all()),
        round_trip_error=round_trip,
    )
