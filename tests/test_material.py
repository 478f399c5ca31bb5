import dataclasses
import math

import numpy as np
import pytest

from microtherm import (AnisotropicTensors, InvalidMaterial, NonFinite,
                        isotropic_embedding, reference_type2, reference_type3,
                        to_moduli_1d, validate_anisotropic, validate_isotropic)

from conftest import ISOTROPIC_FAILS, SYMMETRY_FAILS, perturbed, random_valid_material


class TestModuliReduction:
    def test_reference_values(self):
        ref = reference_type3()
        m = to_moduli_1d(ref)
        assert m.m_uu == ref.lambda_e + 2.0 * ref.mu_e == 3.0
        assert m.m_ur == ref.gamma1 + 2.0 * ref.gamma2
        assert m.m_rr == 1.0  # 1/3 + 1/3 + 1/3 is exact in binary
        assert m.m_rr_rate == 1.0
        assert m.varpi_plus_hbar == ref.varpi + ref.hbar_c
        assert m.k_cond == 1.0 and m.h_cond == 1.0

    def test_type2_reference_is_conservative(self):
        m = to_moduli_1d(reference_type2())
        assert m.h_cond == 0.0 and m.m_rr_rate == 0.0

    def test_invalid_material_raises_with_report_text(self):
        bad = dataclasses.replace(reference_type3(), rho=-1.0, k_cond=0.0)
        with pytest.raises(InvalidMaterial) as err:
            to_moduli_1d(bad)
        assert "rho > 0 violated" in str(err.value)
        assert "k_cond > 0 violated" in str(err.value)

    def test_nan_coefficient_raises_nonfinite(self):
        bad = dataclasses.replace(reference_type3(), beta=math.nan)
        with pytest.raises(NonFinite):
            validate_isotropic(bad)

    def test_random_valid_materials_reduce_cleanly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = to_moduli_1d(random_valid_material(rng))
            assert m.m_uu > 0 and m.k_cond > 0
            assert m.m_uu * m.m_rr - m.m_ur ** 2 > 0


class TestIsotropicValidation:
    @pytest.mark.parametrize("material", [reference_type2(), reference_type3()],
                             ids=["type2", "type3"])
    def test_reference_materials_pass_every_inequality(self, material):
        report = validate_isotropic(material)
        assert report.valid
        assert str(report) == "valid"

    @pytest.mark.parametrize(
        "material,mention",
        [(m, s) for _, m, s in ISOTROPIC_FAILS],
        ids=[case_id for case_id, _, _ in ISOTROPIC_FAILS])
    def test_each_inequality_has_a_failing_fixture(self, material, mention):
        report = validate_isotropic(material)
        assert not report.valid
        assert mention in str(report)

    def test_boundary_values_pass_nonstrict_checks(self):
        # h_cond = 0 and zero rate sum sit exactly on the allowed boundary
        m = dataclasses.replace(reference_type3(), h_cond=0.0,
                                rho1=0.0, rho2=0.0, rho3=0.0)
        assert validate_isotropic(m).valid


class TestAnisotropicValidation:
    def test_embedded_reference_passes_all_symmetries(self):
        report = validate_anisotropic(isotropic_embedding(reference_type3()))
        assert report.valid

    def test_embedding_matches_isotropic_reduction(self):
        ref = reference_type3()
        t = isotropic_embedding(ref)
        m = to_moduli_1d(ref)
        # axial (x-aligned) contractions reproduce the 1D moduli
        assert t.elasticity[0, 0, 0, 0] == pytest.approx(m.m_uu, rel=1e-15)
        assert t.micro_coupling[0, 0, 0, 0] == pytest.approx(m.m_ur, rel=1e-15)
        assert t.micro_stiffness[0, 0, 0, 0] == pytest.approx(m.m_rr, rel=1e-15)
        assert t.micro_stiffness_rate[0, 0, 0, 0] == pytest.approx(m.m_rr_rate, rel=1e-15)
        assert t.conductivity[0, 0] == m.k_cond
        assert t.conductivity_rate[0, 0] == m.h_cond
        assert t.thermal_coupling[0, 0] == m.beta
        assert t.entropy_micro[0, 0] + t.thermal_micro[0, 0] == pytest.approx(
            m.varpi_plus_hbar, rel=1e-15)

    @pytest.mark.parametrize(
        "tensors,mention",
        [(t, s) for _, t, s in SYMMETRY_FAILS],
        ids=[case_id for case_id, _, _ in SYMMETRY_FAILS])
    def test_each_symmetry_has_a_failing_fixture(self, tensors, mention):
        report = validate_anisotropic(tensors)
        assert not report.valid
        assert mention in str(report)

    def test_violation_message_names_the_index(self):
        t = perturbed(isotropic_embedding(reference_type3()),
                      "elasticity", [((0, 1, 0, 2), 1e-3)])
        report = validate_anisotropic(t)
        assert "(0, 1, 0, 2)" in str(report)

    def test_single_slot_perturbation_is_localized(self):
        # the perturbed fixture must differ from the clean embedding in
        # exactly one slot, otherwise the failing cases prove nothing
        clean = isotropic_embedding(reference_type3())
        t = perturbed(clean, "elasticity", [((0, 1, 0, 2), 1e-3)])
        diff = np.argwhere(t.elasticity != clean.elasticity)
        assert [tuple(i) for i in diff] == [(0, 1, 0, 2)]

    def test_bad_shape_rejected(self):
        kwargs = dataclasses.asdict(isotropic_embedding(reference_type3()))
        kwargs["conductivity"] = np.eye(2)
        with pytest.raises(ValueError, match="conductivity"):
            AnisotropicTensors(**kwargs)

    def test_nonfinite_tensor_raises(self):
        t = perturbed(isotropic_embedding(reference_type3()),
                      "elasticity", [((0, 0, 0, 0), math.inf)])
        with pytest.raises(NonFinite, match="elasticity"):
            validate_anisotropic(t)

    def test_tensors_are_read_only(self):
        t = isotropic_embedding(reference_type3())
        with pytest.raises(ValueError):
            t.elasticity[0, 0, 0, 0] = 5.0
