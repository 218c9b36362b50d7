"""Tests for the MOSFET compact model (repro.spice.mosfet)."""

import numpy as np
import pytest

from repro.spice.mosfet import MosfetModel, nmos_28nm, pmos_28nm
from repro.variation.corners import ProcessCorner, PVTCorner


@pytest.fixture
def nmos():
    return MosfetModel(1e-6, 100e-9, nmos_28nm())


@pytest.fixture
def pmos():
    return MosfetModel(1e-6, 100e-9, pmos_28nm())


class TestGeometryValidation:
    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            MosfetModel(1e-9, 100e-9)

    def test_rejects_tiny_length(self):
        with pytest.raises(ValueError):
            MosfetModel(1e-6, 1e-9)


class TestDrainCurrent:
    def test_off_device_conducts_little(self, nmos):
        assert nmos.batch_drain_current(vgs=0.0, vds=0.9) < 1e-7

    def test_current_increases_with_vgs(self, nmos):
        currents = [nmos.batch_drain_current(vgs, 0.9) for vgs in (0.4, 0.6, 0.8)]
        assert currents[0] < currents[1] < currents[2]

    def test_current_scales_with_width(self):
        narrow = MosfetModel(1e-6, 100e-9, nmos_28nm())
        wide = MosfetModel(4e-6, 100e-9, nmos_28nm())
        ratio = wide.batch_drain_current(0.7, 0.9) / narrow.batch_drain_current(
            0.7, 0.9
        )
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_current_decreases_with_length(self):
        short = MosfetModel(1e-6, 30e-9, nmos_28nm())
        long = MosfetModel(1e-6, 300e-9, nmos_28nm())
        assert short.batch_drain_current(0.7, 0.9) > long.batch_drain_current(0.7, 0.9)

    def test_negative_vds_clamped(self, nmos):
        assert nmos.batch_drain_current(0.7, -0.1) >= 0.0

    def test_triode_current_below_saturation(self, nmos):
        assert nmos.batch_drain_current(0.7, 0.02) < nmos.batch_drain_current(0.7, 0.9)

    def test_pmos_weaker_than_nmos_at_same_size(self, nmos, pmos):
        assert pmos.batch_drain_current(0.7, 0.9) < nmos.batch_drain_current(0.7, 0.9)


class TestEnvironment:
    def test_ss_corner_reduces_current(self, nmos):
        nominal = PVTCorner(ProcessCorner.TT, 0.9, 27.0)
        slow = PVTCorner(ProcessCorner.SS, 0.9, 27.0)
        assert nmos.batch_drain_current(
            0.6, 0.9, corner=slow
        ) < nmos.batch_drain_current(0.6, 0.9, corner=nominal)

    def test_ff_corner_increases_current(self, nmos):
        nominal = PVTCorner(ProcessCorner.TT, 0.9, 27.0)
        fast = PVTCorner(ProcessCorner.FF, 0.9, 27.0)
        assert nmos.batch_drain_current(
            0.6, 0.9, corner=fast
        ) > nmos.batch_drain_current(0.6, 0.9, corner=nominal)

    def test_high_temperature_reduces_strong_inversion_current(self, nmos):
        cold = PVTCorner(ProcessCorner.TT, 0.9, -40.0)
        hot = PVTCorner(ProcessCorner.TT, 0.9, 80.0)
        assert nmos.batch_drain_current(
            0.8, 0.9, corner=hot
        ) < nmos.batch_drain_current(0.8, 0.9, corner=cold)

    def test_positive_vth_mismatch_reduces_current(self, nmos):
        base = nmos.batch_drain_current(0.6, 0.9)
        shifted = nmos.batch_drain_current(0.6, 0.9, vth_shift=0.05)
        assert shifted < base

    def test_beta_error_scales_current(self, nmos):
        base = nmos.batch_drain_current(0.7, 0.9)
        boosted = nmos.batch_drain_current(0.7, 0.9, beta_error=0.10)
        assert boosted == pytest.approx(base * 1.10, rel=0.01)


class TestOperatingPoint:
    def test_region_classification(self, nmos):
        # No region label: the regions show in the overdrive and conductances.
        sub = nmos.batch_operating_point(0.2, 0.9)
        sat = nmos.batch_operating_point(0.8, 0.9)
        tri = nmos.batch_operating_point(0.8, 0.01)
        assert sub.vov < 0 < sat.vov
        assert sub.ids < 1e-3 * sat.ids
        assert tri.ids < sat.ids
        assert tri.gds > 5 * sat.gds

    def test_batch_axis_matches_elementwise(self, nmos):
        vgs = np.array([0.2, 0.5, 0.8])
        vds = np.array([0.9, 0.05, 0.01])
        batch = nmos.batch_operating_point(vgs[:, None], vds[None, :])
        assert batch.ids.shape == (3, 3)
        for i, j in np.ndindex(3, 3):
            single = nmos.batch_operating_point(vgs[i], vds[j])
            assert batch.ids[i, j] == single.ids
            assert batch.gm[i, j] == single.gm
            assert batch.gds[i, j] == single.gds

    def test_operating_point_carries_threshold_shift(self, nmos):
        op = nmos.batch_operating_point(0.7, 0.9, vth_shift=0.05)
        assert op.vth == pytest.approx(nmos_28nm().vth0 + 0.05)
        assert op.vov == pytest.approx(0.7 - op.vth)
        assert op.ids == nmos.batch_drain_current(0.7, 0.9, vth_shift=0.05)

    def test_gm_positive_in_saturation(self, nmos):
        op = nmos.batch_operating_point(0.7, 0.9)
        assert op.gm > 0
        assert op.gds > 0

    def test_transconductance_matches_finite_difference(self, nmos):
        delta = 1e-4
        expected = (
            nmos.batch_drain_current(0.7 + delta, 0.9)
            - nmos.batch_drain_current(0.7, 0.9)
        ) / delta
        gm = nmos.batch_operating_point(0.7, 0.9).gm
        assert gm == pytest.approx(expected, rel=0.05)

    def test_output_conductance_matches_finite_difference(self, nmos):
        delta = 1e-4
        for vds in (0.05, 0.9):  # triode and saturation
            expected = (
                nmos.batch_drain_current(0.7, vds + delta)
                - nmos.batch_drain_current(0.7, vds)
            ) / delta
            gds = nmos.batch_operating_point(0.7, vds).gds
            assert gds == pytest.approx(expected, rel=0.05)


class TestCapacitances:
    def test_gate_capacitance_scales_with_area(self):
        small = MosfetModel(1e-6, 30e-9, nmos_28nm())
        large = MosfetModel(4e-6, 30e-9, nmos_28nm())
        assert large.gate_capacitance() > small.gate_capacitance()

    def test_drain_capacitance_positive(self, nmos):
        assert nmos.drain_capacitance() > 0

    def test_gate_capacitance_reasonable_magnitude(self, nmos):
        # A 1 um x 0.1 um device should be in the low-femtofarad range.
        assert 0.1e-15 < nmos.gate_capacitance() < 20e-15
