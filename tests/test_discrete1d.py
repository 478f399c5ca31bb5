import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from microtherm import (DimensionMismatch, Grid1D, InvalidGrid, InvalidMaterial,
                        NonFinite, assemble_backward, assemble_operator, reference_type2,
                        reference_type3, to_moduli_1d)
from microtherm import discrete1d
from microtherm.diagnostics import _BREAKDOWN, dissipativity_residual
from microtherm.discrete1d import (FIELDS, FORMS, _form_kernel, form_stencil, form_tables,
                                   form_values, node_blocks, row_blocks)
from microtherm.evolve import _csr, _midpoint_norm, time_reversal

from conftest import (bmat_generator, collect, difference_matrices, fields,
                      first_difference, form_matrix, form_scale, generator_matrix,
                      gram_form_values, gram_matrix, gram_norm, kron_form, node_major_csr,
                      random_state, random_valid_material, second_difference, sine_init,
                      staggered_difference, stencil_triplets)


def stencil_matrices(n, h):
    """The Laplacian and the centered gradient of the assembly's
    (rows, cols, values) triplets, as sparse n x n matrices."""
    _, lap, grad = (sp.csr_matrix((v, (r, c)), shape=(n, n))
                    for r, c, v in stencil_triplets(n, h))
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
        a_mat = generator_matrix(op3)
        s, out = fields(x), fields(a_mat @ x)
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
        scale = np.abs(a_mat @ x).max()
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
        quad = float(x @ (gram_matrix(op3) @ x))
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
        pairs = [("A", generator_matrix(op), explicit_a), ("G", gram_matrix(op), explicit_g)]
        pairs += [(name, form_matrix(op, name), kron_form(op.forms[FORMS.index(name)], n, h))
                  for name in FORMS]
        for name, got, want in pairs:
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype, (name, attr)
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (name, attr)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 512])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_block_csr_equals_the_coo_assembly_byte_for_byte(self, n, reference, assemble):
        # the node-major CSR (evolve._csr) of the node blocks of A, of 2G
        # and of every form, against the node-major CSR of the COO build
        # of their tables
        op = assemble(Grid1D(n_interior=n), to_moduli_1d(reference()))
        pairs = [("A", op.stencil, generator_matrix(op)),
                 ("2G", form_stencil(op, "total", 2.0), gram_matrix(op))]
        pairs += [(name, form_stencil(op, name), form_matrix(op, name)) for name in FORMS]
        for name, stencil, coo in pairs:
            got, want = _csr(node_blocks(stencil, n)), node_major_csr(coo)
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
        g = gram_matrix(op3)
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
            a_mat, g_mat = generator_matrix(op), gram_matrix(op)
            for _ in range(50):
                u = random_state(16, rng)
                quad = float(u @ (g_mat @ (a_mat @ u)))
                assert quad <= 1e-12 * float(u @ (g_mat @ u))

    def test_type2_quadratic_form_vanishes(self):
        grid = Grid1D(n_interior=8)
        op = assemble_operator(grid, to_moduli_1d(reference_type2()))
        rng = np.random.default_rng(8)
        a_mat, g_mat = generator_matrix(op), gram_matrix(op)
        for _ in range(100):
            u = rng.standard_normal(48)
            u /= np.linalg.norm(u)
            quad = float(u @ (g_mat @ (a_mat @ u)))
            assert abs(quad) <= 1e-12 * float(u @ (g_mat @ u))

    def test_backward_generator_is_reversal_conjugate(self, op3, op3_back, grid16):
        n = grid16.n_interior
        signs = np.concatenate([np.ones(n), -np.ones(n), np.ones(n),
                                -np.ones(n), np.ones(n), -np.ones(n)])
        s_mat = sp.diags(signs)
        expected = -(s_mat @ generator_matrix(op3) @ s_mat).toarray()
        assert np.array_equal(generator_matrix(op3_back).toarray(), expected)
        assert (gram_matrix(op3_back) != gram_matrix(op3)).nnz == 0
        assert op3.time_sign == 1 and op3_back.time_sign == -1

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 512])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    def test_backward_blocks_are_the_reversed_forward_ones(self, n, reference):
        # stencil(bwd) == -S stencil(fwd) S entry for entry, S the sign
        # flip of v, theta, M (evolve.time_reversal), and the same G;
        # each orientation is built from its own table
        grid = Grid1D(n_interior=n)
        m = to_moduli_1d(reference())
        fwd, bwd = assemble_operator(grid, m), assemble_backward(grid, m)
        flip = time_reversal(np.ones(6 * n)).reshape(6, n)[:, 0]
        expected = -(fwd.stencil * np.multiply.outer(flip, flip))
        assert np.count_nonzero(bwd.stencil != expected) == 0
        assert np.array_equal(form_stencil(bwd, "total"), form_stencil(fwd, "total"))

    def test_backward_form_produces_energy(self, op3_back):
        rng = np.random.default_rng(9)
        a_mat, g_mat = generator_matrix(op3_back), gram_matrix(op3_back)
        for _ in range(20):
            u = random_state(16, rng)
            quad = float(u @ (g_mat @ (a_mat @ u)))
            assert quad >= -1e-12 * float(u @ (g_mat @ u))

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
            got = fields(generator_matrix(assemble_operator(Grid1D(n_interior=n), m)) @ s)
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


class TestRowBlocks:
    """The node blocks of min(n, 7) nodes (row_blocks) hold every
    distinct row of an n-node operator and of the product G A, so the
    numbers read from them are the full grid's, bit for bit."""

    @staticmethod
    def derived(op):
        """|I - dt/2 A| at two dt, the band stepper's |K| (inf-norm, the
        rate rows on the position columns) and the dissipativity
        residual, each read from row_blocks."""
        k_rows = row_blocks(op.stencil, op.n)[:, :, 1::2, 0::2]
        return (_midpoint_norm(op.stencil, op.n, 1e-3), _midpoint_norm(op.stencil, op.n, 1e50),
                float(np.abs(k_rows).sum(axis=(1, 3)).max()), dissipativity_residual(op))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 17, 64])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    @pytest.mark.parametrize("scaled", [False, True], ids=["stencil", "v-u-scaled"])
    def test_equal_the_full_grid(self, n, reference, assemble, scaled, monkeypatch):
        op = assemble(Grid1D(n_interior=n), to_moduli_1d(reference()))
        if scaled:  # the v row's u Laplacian on the left neighbour only
            stencil = op.stencil.copy()
            stencil[0, FIELDS.index("v"), FIELDS.index("u")] *= 1.0 + 1e-9
            op = op._replace(stencil=stencil)
        got = self.derived(op)
        monkeypatch.setattr(discrete1d, "_ROW_NODES", n)
        assert got == self.derived(op)
        assert (got[-1] > 1e-10) == scaled
