import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from microtherm import (DimensionMismatch, Grid1D, InvalidGrid, InvalidMaterial,
                        NonFinite, assemble_backward, assemble_operator, reference_type2,
                        reference_type3, to_moduli_1d)
from microtherm.diagnostics import _BREAKDOWN
from microtherm.discrete1d import (FIELDS, FORMS, _form_kernel, _stencils, form_matrix,
                                   form_tables, form_values)

from conftest import (bmat_generator, collect, difference_matrices, fields,
                      first_difference, form_scale, gram_form_values, gram_norm,
                      kron_form, random_state, random_valid_material, second_difference,
                      sine_init, staggered_difference)


def stencil_matrices(n, h):
    """The Laplacian and the centered gradient of the assembly's
    (rows, cols, values) triplets, as sparse n x n matrices."""
    _, lap, grad = (sp.csr_matrix((v, (r, c)), shape=(n, n)) for r, c, v in _stencils(n, h))
    return lap, grad


def discrete_laplacian_eigenvalue(k: int, h: float) -> float:
    return (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2


class TestGridAndState:
    def test_grid_spacing_and_nodes(self):
        g = Grid1D(n_interior=4, length=2.0)
        assert g.h == pytest.approx(0.4)
        assert np.allclose(g.nodes, [0.4, 0.8, 1.2, 1.6])

    @pytest.mark.parametrize("kwargs", [
        {"n_interior": 1}, {"n_interior": 0}, {"n_interior": -3},
        {"n_interior": 8, "length": 0.0}, {"n_interior": 8, "length": -1.0},
        {"n_interior": 8, "length": float("inf")},
        # 1/h^2 must be a finite positive float: h*h underflows to zero
        # (1e-200), to a subnormal whose inverse overflows (1e-160), or
        # overflows itself (1e200)
        {"n_interior": 16, "length": 1e-200}, {"n_interior": 16, "length": 1e-160},
        {"n_interior": 16, "length": 1e200},
    ])
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(InvalidGrid):
            Grid1D(**kwargs)

    def test_stacking_order(self):
        # a state stacks n values of each field in this order
        assert FIELDS == ("u", "v", "tau", "theta", "r", "m")


class TestStencils:
    """The difference stencils and the stiffness stencil the operator
    and its forms are assembled from."""

    def test_second_difference_hand_values(self):
        h = 0.5
        lap, _ = stencil_matrices(2, h)
        out = lap @ np.array([1.0, 2.0])
        # ghost zeros: (0 - 2*1 + 2, 1 - 2*2 + 0) / h^2
        assert np.allclose(out * h ** 2, [0.0, -3.0], atol=0, rtol=0)

    def test_sine_mode_truncation_bound(self):
        # continuum comparison at a fixed fine resolution
        n = 63
        h = 1.0 / (n + 1)
        x = np.arange(1, n + 1) * h
        f = np.sin(np.pi * x)
        got = stencil_matrices(n, h)[0] @ f
        rel = np.abs(got + np.pi ** 2 * f).max() / np.pi ** 2
        assert rel <= (np.pi * h) ** 2 / 12 * 2

    def test_sine_is_exact_discrete_eigenvector(self):
        n, h = 16, 1.0 / 17
        lap, _ = stencil_matrices(n, h)
        x = np.arange(1, n + 1) * h
        for k in (1, 2, 5):
            f = np.sin(k * np.pi * x)
            mu = discrete_laplacian_eigenvalue(k, h)
            assert np.abs(lap @ f + mu * f).max() <= 1e-11 * mu

    def test_first_difference_is_exactly_antisymmetric(self):
        rng = np.random.default_rng(3)
        h = 1.0 / 17
        _, grad = stencil_matrices(16, h)
        assert (grad + grad.T).nnz == 0
        for _ in range(10):
            f, g = rng.standard_normal(16), rng.standard_normal(16)
            skew = f @ (grad @ g) + g @ (grad @ f)
            scale = np.abs(f).max() * np.abs(g).max() / h
            assert abs(skew) <= 1e-14 * scale

    def test_staggered_summation_by_parts(self, moduli3):
        # the stiffness stencil S_1, read off the u-u block of the
        # elastic form's matrix (m_uu/2 S_1)
        op = assemble_operator(Grid1D(n_interior=16), moduli3)
        h = op.grid.h
        stiff = (2.0 / moduli3.m_uu) * form_matrix(op, "elastic")[:16, :16]
        lap, _ = stencil_matrices(16, h)
        rng = np.random.default_rng(4)
        for _ in range(10):
            f, g = rng.standard_normal(16), rng.standard_normal(16)
            lhs = h * staggered_difference(f, h) @ staggered_difference(g, h)
            for rhs in (f @ (stiff @ g), -h * f @ (lap @ g)):
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_stiffness_stencil_hand_values(self, moduli3):
        # h = 1/4: the four staggered jumps of (2, 3, -1) are 2, 1, -4, 1
        op = assemble_operator(Grid1D(n_interior=3), moduli3)
        u = np.array([2.0, 3.0, -1.0])
        value = u @ (form_matrix(op, "elastic")[:3, :3] @ u)
        assert value == pytest.approx(0.5 * moduli3.m_uu * 22.0 / 0.25, rel=1e-15)


class TestOperatorAssembly:
    def test_generator_rows_match_stencils(self, op3, moduli3):
        rng = np.random.default_rng(5)
        m, h = moduli3, op3.grid.h
        x = random_state(16, rng)
        s, out = fields(x), fields(op3.a_mat @ x)
        p = m.varpi_plus_hbar
        assert np.array_equal(out["u"], s["v"])
        assert np.array_equal(out["tau"], s["theta"])
        assert np.array_equal(out["r"], s["m"])
        v_dot = (m.m_uu * second_difference(s["u"], h)
                 - m.beta * first_difference(s["theta"], h)
                 + m.m_ur * second_difference(s["r"], h)) / m.rho
        th_dot = (-m.beta * first_difference(s["v"], h)
                  + m.k_cond * second_difference(s["tau"], h)
                  + m.h_cond * second_difference(s["theta"], h)
                  - p * first_difference(s["m"], h)) / m.c_cap
        m_dot = (m.m_ur * second_difference(s["u"], h)
                 + m.m_rr * second_difference(s["r"], h)
                 + m.m_rr_rate * second_difference(s["m"], h)
                 - p * first_difference(s["theta"], h)) / m.alpha_m
        scale = np.abs(op3.a_mat @ x).max()
        assert np.abs(out["v"] - v_dot).max() <= 1e-13 * scale
        assert np.abs(out["theta"] - th_dot).max() <= 1e-13 * scale
        assert np.abs(out["m"] - m_dot).max() <= 1e-13 * scale

    def test_gram_realizes_twice_the_energy(self, op3, moduli3):
        rng = np.random.default_rng(6)
        m, h = moduli3, op3.grid.h
        x = random_state(16, rng)
        u, v, tau, theta, r, mm = x.reshape(6, -1)
        du = staggered_difference(u, h)
        dtau = staggered_difference(tau, h)
        dr = staggered_difference(r, h)
        by_hand = h * (m.rho * v @ v + m.c_cap * theta @ theta
                       + m.alpha_m * mm @ mm + m.m_uu * du @ du
                       + 2.0 * m.m_ur * du @ dr + m.k_cond * dtau @ dtau
                       + m.m_rr * dr @ dr)
        quad = float(x @ (op3.g_mat @ x))
        assert quad == pytest.approx(by_hand, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 64])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_gram_equals_explicit_block_assembly_bit_for_bit(self, n, reference, assemble):
        # A, G and every form matrix against scipy's block constructors;
        # the builder drops the blocks of zero coefficients, which the
        # oracle keeps as stored zeros
        grid = Grid1D(n_interior=n)
        m = to_moduli_1d(reference())
        h = grid.h
        stiff = (-h) * difference_matrices(n, h)[0]
        eye = sp.identity(n, format="csr")
        explicit_g = sp.bmat([
            [m.m_uu * stiff, None, None, None, m.m_ur * stiff, None],
            [None, m.rho * h * eye, None, None, None, None],
            [None, None, m.k_cond * stiff, None, None, None],
            [None, None, None, m.c_cap * h * eye, None, None],
            [m.m_ur * stiff, None, None, None, m.m_rr * stiff, None],
            [None, None, None, None, None, m.alpha_m * h * eye],
        ], format="csr")
        op = assemble(grid, m)
        explicit_a = bmat_generator(grid, m, op.time_sign)
        explicit_a.eliminate_zeros()
        pairs = [("a_mat", op.a_mat, explicit_a), ("g_mat", op.g_mat, explicit_g)]
        pairs += [(name, form_matrix(op, name), kron_form(op.forms[FORMS.index(name)], n, h))
                  for name in FORMS]
        for name, got, want in pairs:
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype, (name, attr)
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (name, attr)

    def test_form_matrices_agree_with_form_values(self, op3, op3_back):
        rng = np.random.default_rng(14)
        states = rng.standard_normal((5, 6 * 16))
        for op in (op3, op3_back):
            values = form_values(op, states)
            for name, column in zip(FORMS, values.T):
                quad = np.einsum("sj,sj->s", states, (form_matrix(op, name) @ states.T).T)
                assert np.abs(quad - column).max() <= 1e-13 * values[:, 0].min(), name

    @pytest.mark.parametrize("model", ["op3", "op3_back", "op2"])
    def test_dissipation_matrix_has_only_the_rate_diagonal_blocks(self, model, request):
        op = request.getfixturevalue(model)
        n, h = op.n, op.grid.h
        q = form_matrix(op, "dissipation_rate").toarray()
        stiff = -h * stencil_matrices(n, h)[0].toarray()
        m = op.moduli
        for a in range(6):
            for b in range(6):
                block = q[a * n:(a + 1) * n, b * n:(b + 1) * n]
                rate = {(3, 3): m.h_cond, (5, 5): m.m_rr_rate}.get((a, b), 0.0)
                if rate:
                    assert np.allclose(block, op.time_sign * rate * stiff, rtol=1e-15, atol=0)
                else:
                    assert not block.any(), (FIELDS[a], FIELDS[b])

    def test_gram_is_twice_the_energy_tables(self, moduli3):
        tables = form_tables(moduli3, -1)
        terms = tables[FORMS.index("kinetic"):FORMS.index("r_gradient") + 1]
        assert len(terms) == 7
        assert np.array_equal(tables[FORMS.index("total")], terms.sum(axis=0))
        # every energy table is symmetric in the field pair; the time
        # orientation signs only the rate quadrature
        assert np.array_equal(terms, terms.transpose(0, 1, 3, 2))
        forward = form_tables(moduli3, 1)
        flip = FORMS.index("dissipation_rate")
        assert np.array_equal(np.delete(forward, flip, 0), np.delete(tables, flip, 0))
        assert np.array_equal(forward[flip], -tables[flip])

    @pytest.mark.parametrize("midpoints", [False, True])
    def test_form_values_rows_do_not_depend_on_blocks(self, moduli3, midpoints):
        # 400 rows of a 6n = 384 state span several blocks of form_values
        op = assemble_operator(Grid1D(n_interior=64), moduli3)
        rng = np.random.default_rng(13)
        states = rng.standard_normal((400, 6 * 64))
        batched = form_values(op, states, midpoints=midpoints)
        assert batched.shape == (400 - midpoints, len(FORMS))
        for j in range(len(batched)):
            alone = form_values(op, states[j:j + 1 + midpoints], midpoints=midpoints)
            assert np.array_equal(alone[0], batched[j])
        with pytest.raises(DimensionMismatch):
            form_values(op, states[:, :-1])

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 512])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("forms", [_BREAKDOWN, ("dissipation_rate",), FORMS],
                             ids=["breakdown", "rate", "all"])
    @pytest.mark.parametrize("midpoints", [False, True])
    def test_kernel_matches_the_full_gram_contraction(self, n, reference, forms, midpoints):
        # the kernel evaluates only the entries the tables hold; the
        # oracle contracts the full 6x6 Grams under all three stencils
        op = assemble_operator(Grid1D(n_interior=n), to_moduli_1d(reference()))
        rng = np.random.default_rng(n)
        states = np.concatenate([collect(op, sine_init(op.grid), 1e-3, 19),
                                 rng.standard_normal((20, 6 * n))])
        got = _form_kernel(op, forms)(states, midpoints)
        want = gram_form_values(op, states, forms, midpoints)
        assert got.shape == want.shape == (40 - midpoints, len(forms))
        assert (np.abs(got - want) <= 1e-14 * form_scale(op, states, forms, midpoints)).all()

    def test_gram_is_symmetric_positive_definite(self, op3):
        g = op3.g_mat
        assert (g != g.T).nnz == 0
        eigs = np.linalg.eigvalsh(g.toarray())
        assert eigs.min() > 0

    def test_gram_norm_of_pure_sine_displacement(self, op3, moduli3):
        n, h = 16, op3.grid.h
        x = np.arange(1, n + 1) * h
        s = np.zeros((6, n))
        s[FIELDS.index("u")] = np.sin(np.pi * x)
        s = s.ravel()
        mu = discrete_laplacian_eigenvalue(1, h)
        # exact discrete value, then the continuum limit m_uu*pi^2/2
        assert gram_norm(op3, s) ** 2 == pytest.approx(moduli3.m_uu * mu / 2, rel=1e-13)
        assert gram_norm(op3, s) ** 2 == pytest.approx(
            moduli3.m_uu * np.pi ** 2 / 2, rel=(np.pi * h) ** 2 / 12 * 2)

    def test_dissipativity_random_materials_and_states(self):
        grid = Grid1D(n_interior=16)
        rng = np.random.default_rng(7)
        for _ in range(5):
            op = assemble_operator(grid, to_moduli_1d(random_valid_material(rng)))
            for _ in range(50):
                u = random_state(16, rng)
                quad = float(u @ (op.g_mat @ (op.a_mat @ u)))
                assert quad <= 1e-12 * float(u @ (op.g_mat @ u))

    def test_type2_quadratic_form_vanishes(self):
        grid = Grid1D(n_interior=8)
        op = assemble_operator(grid, to_moduli_1d(reference_type2()))
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = rng.standard_normal(48)
            u /= np.linalg.norm(u)
            quad = float(u @ (op.g_mat @ (op.a_mat @ u)))
            assert abs(quad) <= 1e-12 * float(u @ (op.g_mat @ u))

    def test_backward_generator_is_reversal_conjugate(self, op3, op3_back, grid16):
        n = grid16.n_interior
        signs = np.concatenate([np.ones(n), -np.ones(n), np.ones(n),
                                -np.ones(n), np.ones(n), -np.ones(n)])
        s_mat = sp.diags(signs)
        expected = -(s_mat @ op3.a_mat @ s_mat).toarray()
        assert np.array_equal(op3_back.a_mat.toarray(), expected)
        assert op3_back.g_mat is op3.g_mat or (op3_back.g_mat != op3.g_mat).nnz == 0
        assert op3.time_sign == 1 and op3_back.time_sign == -1

    def test_backward_form_produces_energy(self, op3_back):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = random_state(16, rng)
            quad = float(u @ (op3_back.g_mat @ (op3_back.a_mat @ u)))
            assert quad >= -1e-12 * float(u @ (op3_back.g_mat @ u))

    def test_invalid_moduli_rejected_at_assembly(self):
        # a NaN fails no comparison, so a modulus is checked finite first
        good = to_moduli_1d(reference_type2())
        for name, value, error in (("rho", -1.0, InvalidMaterial),
                                   ("rho", math.nan, NonFinite),
                                   ("h_cond", math.nan, NonFinite),
                                   ("beta", math.nan, NonFinite),
                                   ("m_uu", math.inf, NonFinite)):
            bad = dataclasses.replace(good, **{name: value})
            with pytest.raises(error, match=name):
                assemble_operator(Grid1D(n_interior=8), bad)

    def test_truncation_error_is_second_order(self, moduli3):
        # smooth manufactured fields: compare A U against the continuum
        # right-hand side; the max error must shrink by ~4 per h halving
        m = moduli3
        p = m.varpi_plus_hbar

        def error_at(n):
            h = 1.0 / (n + 1)
            x = np.arange(1, n + 1) * h
            sin = np.sin
            cos = np.cos
            pi = np.pi
            s = np.concatenate([sin(pi * x), sin(2 * pi * x), sin(3 * pi * x),
                                sin(pi * x), sin(2 * pi * x), sin(3 * pi * x)])
            got = fields(assemble_operator(Grid1D(n_interior=n), m).a_mat @ s)
            v_dot = (m.m_uu * (-pi ** 2) * sin(pi * x)
                     - m.beta * pi * cos(pi * x)
                     + m.m_ur * (-4 * pi ** 2) * sin(2 * pi * x)) / m.rho
            th_dot = (-m.beta * 2 * pi * cos(2 * pi * x)
                      + m.k_cond * (-9 * pi ** 2) * sin(3 * pi * x)
                      + m.h_cond * (-pi ** 2) * sin(pi * x)
                      - p * 3 * pi * cos(3 * pi * x)) / m.c_cap
            m_dot = (m.m_ur * (-pi ** 2) * sin(pi * x)
                     + m.m_rr * (-4 * pi ** 2) * sin(2 * pi * x)
                     + m.m_rr_rate * (-9 * pi ** 2) * sin(3 * pi * x)
                     - p * pi * cos(pi * x)) / m.alpha_m
            return max(np.abs(got["v"] - v_dot).max(),
                       np.abs(got["theta"] - th_dot).max(),
                       np.abs(got["m"] - m_dot).max())

        e_coarse, e_fine = error_at(31), error_at(63)
        order = np.log2(e_coarse / e_fine)
        assert order >= 1.9
