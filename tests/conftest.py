"""Shared fixtures: reference operators, random-state helpers, and the
validation case registry (one passing and one failing fixture per
inequality and per symmetry relation)."""

import dataclasses

import numpy as np
import pytest

from microtherm import (Grid1D, MaterialIsotropic, State1D,
                        assemble_backward, assemble_operator,
                        isotropic_embedding, reference_type2, reference_type3,
                        to_moduli_1d, validate_isotropic)

# ---------------------------------------------------------------------------
# operators


@pytest.fixture(scope="session")
def grid16():
    return Grid1D(n_interior=16)


@pytest.fixture(scope="session")
def moduli3():
    return to_moduli_1d(reference_type3())


@pytest.fixture(scope="session")
def moduli2():
    return to_moduli_1d(reference_type2())


@pytest.fixture(scope="session")
def op3(grid16, moduli3):
    return assemble_operator(grid16, moduli3)


@pytest.fixture(scope="session")
def op2(grid16, moduli2):
    return assemble_operator(grid16, moduli2)


@pytest.fixture(scope="session")
def op3_back(grid16, moduli3):
    return assemble_backward(grid16, moduli3)


@pytest.fixture(scope="session")
def op2_back(grid16, moduli2):
    return assemble_backward(grid16, moduli2)


# ---------------------------------------------------------------------------
# state helpers


def random_state(n: int, rng) -> State1D:
    return State1D.from_vector(rng.standard_normal(6 * n))


def sine_init(grid: Grid1D, u_amp=1.0, theta_amp=0.5, theta_mode=2) -> State1D:
    x = grid.nodes
    n = grid.n_interior
    return State1D(
        u=u_amp * np.sin(np.pi * x / grid.length),
        v=np.zeros(n),
        tau=np.zeros(n),
        theta=theta_amp * np.sin(theta_mode * np.pi * x / grid.length),
        r=np.zeros(n),
        m=np.zeros(n),
    )


def random_valid_material(rng, type3: bool = True) -> MaterialIsotropic:
    """Rejection-sample a material satisfying every hypothesis (strict
    rate coefficients when type3)."""
    while True:
        m = MaterialIsotropic(
            rho=rng.uniform(0.5, 2.0),
            lambda_e=rng.uniform(0.2, 2.0),
            mu_e=rng.uniform(0.2, 2.0),
            beta=rng.uniform(-1.5, 1.5),
            c_cap=rng.uniform(0.5, 2.0),
            alpha_m=rng.uniform(0.5, 2.0),
            gamma1=rng.uniform(-0.3, 0.3),
            gamma2=rng.uniform(-0.3, 0.3),
            k_cond=rng.uniform(0.5, 2.0),
            h_cond=rng.uniform(0.1, 2.0) if type3 else 0.0,
            varpi=rng.uniform(-0.5, 0.5),
            hbar_c=rng.uniform(-0.5, 0.5),
            eta1=rng.uniform(0.2, 1.0),
            eta2=rng.uniform(0.2, 1.0),
            eta3=rng.uniform(0.2, 1.0),
            rho1=rng.uniform(0.05, 1.0) if type3 else 0.0,
            rho2=rng.uniform(0.05, 1.0) if type3 else 0.0,
            rho3=rng.uniform(0.05, 1.0) if type3 else 0.0,
        )
        if validate_isotropic(m).valid:
            return m


# ---------------------------------------------------------------------------
# validation registry: isotropic inequalities

def _mat(**overrides) -> MaterialIsotropic:
    return dataclasses.replace(reference_type3(), **overrides)


# (case id, material, expected report substring); the reference
# materials are the passing fixture for every inequality at once
ISOTROPIC_FAILS = [
    ("rho_nonpositive", _mat(rho=-1.0), "rho > 0 violated"),
    ("c_cap_nonpositive", _mat(c_cap=0.0), "c_cap > 0 violated"),
    ("alpha_m_nonpositive", _mat(alpha_m=-2.0), "alpha_m > 0 violated"),
    ("h_cond_negative", _mat(h_cond=-0.5),
     "condition (ii): h_cond >= 0 violated"),
    ("rate_sum_negative", _mat(rho1=-1.0, rho2=0.0, rho3=0.0),
     "condition (ii): rho1+rho2+rho3 >= 0 violated"),
    ("m_uu_nonpositive", _mat(lambda_e=1.0, mu_e=-1.0),
     "condition (iii): m_uu > 0 violated"),
    ("stiffness_indefinite", _mat(gamma1=2.0),
     "condition (iii): m_uu*m_rr - m_ur^2 > 0 violated"),
    ("k_cond_nonpositive", _mat(k_cond=0.0),
     "condition (iii): k_cond > 0 violated"),
]


# ---------------------------------------------------------------------------
# validation registry: tensor symmetries

def perturbed(tensors, name: str, entries):
    """Copy one tensor and add deltas at the given index tuples."""
    arr = np.array(getattr(tensors, name))
    for idx, delta in entries:
        arr[idx] += delta
    return dataclasses.replace(tensors, **{name: arr})


def _clean():
    return isotropic_embedding(reference_type3())


def _pair_break(name):
    # one slot only: breaks ijkl = jikl (and incidentally the major one)
    return perturbed(_clean(), name, [((0, 1, 0, 2), 1e-3)])


def _major_break(name):
    # symmetric double perturbation keeps ijkl = jikl, breaks ijkl = klij
    return perturbed(_clean(), name, [((0, 1, 0, 2), 1e-3), ((1, 0, 0, 2), 1e-3)])


def _rank2_break(name):
    return perturbed(_clean(), name, [((0, 1), 1e-3)])


SYMMETRY_FAILS = (
    [(f"{name}_pair", _pair_break(name), f"{name} symmetry ijkl = jikl")
     for name in ("elasticity", "micro_coupling", "micro_stiffness")]
    + [(f"{name}_major", _major_break(name), f"{name} symmetry ijkl = klij")
       for name in ("elasticity", "micro_coupling", "micro_stiffness",
                    "micro_stiffness_rate")]
    + [(f"{name}_rank2", _rank2_break(name), f"{name} symmetry ij = ji")
       for name in ("thermal_coupling", "entropy_micro", "micro_inertia",
                    "thermal_micro", "conductivity", "conductivity_rate")]
    + [("micro_inertia_indefinite",
        dataclasses.replace(_clean(), micro_inertia=np.diag([1.0, 1.0, -1.0])),
        "micro_inertia not positive definite")]
)
