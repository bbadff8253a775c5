"""Coefficient design: place map, rotator/zero/gain solves, analytic views."""

import cmath
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmodel.design import (
    CascadeDesign,
    DesignParams,
    _read_coeff_rows,
    complex_zero_bound,
    dc_gain_coeff,
    design_cascade,
    greenwood_cf,
    place_positions,
    pole_angle,
    read_coeff_table,
    rotator_coeffs,
    transfer_function,
    write_coeff_table,
    zero_coeff,
)
from carmodel.errors import DesignError

from conftest import random_section
from oracles import coeff_table_py, csv_text

def poles_zeros(c):
    """Pole pair and zero pair as (radius, angle) tuples, the roots that
    numpy.roots finds of transfer_function's polynomials."""
    tf = transfer_function(c)

    def polar(coeffs):
        return tuple((abs(z), cmath.phase(z)) for z in np.roots(coeffs))

    return polar([1.0, tf.a1_den, tf.a2_den]), polar([tf.b0, tf.b1, tf.b2])


# a field's replacement: a string, or a factor on the field's value
_FIELD_EDITS = st.one_of(
    st.sampled_from(["nan", "inf", "x", "", "0", "-0", "-2", "0.5", "1", "1.5", "4", "1e308",
                     "1e-320", "3.141592653589793"]),
    st.sampled_from([1.5, -1.0, 0.5, 1 + 1e-5, 1 + 1e-7, 1e300]),
)


class TestGreenwood:
    def test_base_endpoint(self):
        assert greenwood_cf(1.0) == pytest.approx(20657.2, abs=0.5)

    def test_apex_of_zero(self):
        assert greenwood_cf(0.0) == 0.0

    def test_apex_default(self):
        # direct evaluation: 165.4 * (10^(2.1*0.023) - 1)
        assert greenwood_cf(0.023) == pytest.approx(19.46, abs=0.01)

    @pytest.mark.parametrize("x", [-0.1, 1.01, 2.0])
    def test_out_of_range(self, x):
        with pytest.raises(DesignError):
            greenwood_cf(x)


class TestPlacePositions:
    def test_three_point(self):
        assert place_positions(3, 1.0, 0.0) == [1.0, 0.5, 0.0]

    def test_two_point(self):
        assert place_positions(2, 1.0, 0.023) == [1.0, 0.023]

    def test_single(self):
        assert place_positions(1, 1.0, 0.023) == [1.0]

    def test_full_scale_spacing(self):
        xs = place_positions(1224, 1.0, 0.023)
        assert xs[0] == 1.0
        assert xs[-1] == 0.023
        step = (1.0 - 0.023) / 1223
        assert step == pytest.approx(7.989e-4, abs=1e-6)
        diffs = np.diff(xs)
        assert np.all(diffs < 0)

    def test_arithmetic_sequence(self):
        xs = place_positions(577, 0.91, 0.1)
        diffs = np.diff(xs)
        assert np.max(np.abs(diffs - diffs[0])) < 1e-12

    def test_zero_sections_rejected(self):
        with pytest.raises(DesignError):
            place_positions(0, 1.0, 0.0)

    def test_reversed_range_rejected(self):
        with pytest.raises(DesignError):
            place_positions(4, 0.2, 0.9)


class TestPoleAngle:
    def test_quarter_rate(self):
        assert pole_angle(12000, 48000) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_near_nyquist(self):
        theta = pole_angle(24000 - 1e-6, 48000)
        assert theta < math.pi
        assert theta == pytest.approx(math.pi, rel=1e-9)

    def test_top_cf_angle(self):
        assert pole_angle(20657.2, 48000) == pytest.approx(2.7035, abs=1e-3)

    def test_at_nyquist_rejected(self):
        with pytest.raises(DesignError):
            pole_angle(24000, 48000)


class TestRotator:
    def test_quarter_turn(self):
        a0, c0 = rotator_coeffs(math.pi / 2)
        assert a0 == pytest.approx(0.0, abs=1e-15)
        assert c0 == 1.0

    def test_sixty_degrees(self):
        a0, c0 = rotator_coeffs(math.pi / 3)
        assert a0 == pytest.approx(0.5, rel=1e-14)
        assert c0 == pytest.approx(math.sqrt(3) / 2, rel=1e-14)

    def test_high_frequency(self):
        a0, c0 = rotator_coeffs(2.7035)
        assert a0 == pytest.approx(-0.9056, abs=1e-3)
        assert c0 == pytest.approx(0.4242, abs=1e-3)

    def test_unit_circle_identity(self, rng):
        for theta in rng.uniform(1e-6, math.pi - 1e-6, 200):
            a0, c0 = rotator_coeffs(theta)
            assert abs(a0 * a0 + c0 * c0 - 1.0) < 1e-12

    def test_near_nyquist_pair_keeps_zeros_complex(self):
        # plain (cos, sin) here gives c0 above the complex-zero bound
        theta = 3.1414926535897925
        a0, c0 = rotator_coeffs(theta)
        assert c0 == math.sin(theta)
        assert a0 == math.nextafter(math.cos(theta), 0.0)
        assert c0 < complex_zero_bound(a0, c0)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0, 4.0])
    def test_angle_domain(self, theta):
        with pytest.raises(DesignError):
            rotator_coeffs(theta)


class TestZeroCoeff:
    def test_bound_high_frequency(self):
        assert complex_zero_bound(-0.9056, 0.4242) == pytest.approx(0.4451, abs=1e-3)

    def test_default_is_c0(self):
        c0 = math.sqrt(3) / 2
        assert zero_coeff(0.5, c0) == c0

    def test_default_always_below_bound(self, rng):
        # h = c0 < (2 + 2*a0)/c0 reduces to (1 + a0)^2 > 0
        for theta in rng.uniform(1e-4, math.pi - 1e-4, 500):
            a0, c0 = rotator_coeffs(theta)
            assert c0 < complex_zero_bound(a0, c0)

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(1e-4, math.pi - 1e-4),
           ratio=st.floats(0.0, 1.0, exclude_min=True))
    def test_ratio_up_to_one_below_bound(self, theta, ratio):
        # F * c0 < (2 + 2*a0)/c0 reduces to F * (1 - a0) < 2
        a0, c0 = rotator_coeffs(theta)
        assert zero_coeff(a0, c0, ratio) == ratio * c0 < complex_zero_bound(a0, c0)

    def test_ratio_above_bound_rejected(self):
        # near Nyquist the bound over c0 is 2/(1 - a0) = 1.049 here
        a0, c0 = rotator_coeffs(2.7035)
        with pytest.raises(DesignError, match="complex-zero bound"):
            zero_coeff(a0, c0, 1.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_zero_ratio_rejected(self, value):
        with pytest.raises(DesignError, match="zero_ratio"):
            DesignParams(48000.0, 3, zero_ratio=value)
        if not math.isfinite(value):  # zero_coeff's own check on a direct call
            a0, c0 = rotator_coeffs(1.0)
            with pytest.raises(DesignError, match="not finite|complex-zero bound"):
                zero_coeff(a0, c0, value)


class TestDcGain:
    def test_h_zero_gives_unity(self, rng):
        for _ in range(50):
            theta = rng.uniform(0.01, 3.0)
            a0, c0 = rotator_coeffs(theta)
            assert dc_gain_coeff(a0, c0, 0.0, rng.uniform(0.1, 1.0)) == 1.0

    def test_r_zero_gives_unity(self):
        assert dc_gain_coeff(0.5, 0.5, 0.3, 0.0) == 1.0

    def test_worked_example(self):
        g = dc_gain_coeff(0.5, math.sqrt(3) / 2, math.sqrt(3) / 2, 0.95)
        assert g == pytest.approx(0.5721, abs=1e-4)

    def test_degenerate_denominator_rejected(self):
        # r = 1 with h = -2*(1 - a0)/c0 zeroes the DC denominator
        a0, c0 = rotator_coeffs(0.1)
        h = -2.0 * (1.0 - a0) / c0
        with pytest.raises(DesignError, match="degenerate"):
            dc_gain_coeff(a0, c0, h, 1.0)

    def test_constant_input_converges_to_constant(self):
        from carmodel.core import SectionState, step_section
        from carmodel.design import ChannelCoeffs

        a0, c0 = rotator_coeffs(0.8)
        h = zero_coeff(a0, c0)
        r = 0.92
        coeffs = ChannelCoeffs(
            cf_hz=0.8 * 48000 / (2 * math.pi), theta_r=0.8, r=r, a0=a0, c0=c0,
            h=h, g=dc_gain_coeff(a0, c0, h, r), section_index=0,
        )
        state = SectionState()
        y = 0.0
        for _ in range(2000):
            state, y = step_section(coeffs, state, 0.7)
        assert y == pytest.approx(0.7, abs=1e-9)


class TestDesignCascade:
    def test_small_design_composition(self):
        d = design_cascade(DesignParams(48000.0, 3))
        assert d.n_sections == 3
        cfs = [s.cf_hz for s in d.sections]
        assert cfs[0] > cfs[1] > cfs[2]
        for s in d.sections:
            tf = transfer_function(s)
            assert tf.evaluate(1.0 + 0j) == pytest.approx(1.0, abs=1e-12)

    def test_full_scale_cf_range(self):
        d = design_cascade(DesignParams(48000.0, 1224))
        assert d.sections[0].cf_hz == pytest.approx(20657.2, abs=0.5)
        assert d.sections[-1].cf_hz == pytest.approx(19.46, abs=0.05)

    def test_zero_damping_radii(self):
        d = design_cascade(DesignParams(48000.0, 100, damping_zeta=0.0))
        assert all(s.r == 1.0 for s in d.sections)

    def test_cf_strictly_decreasing_and_consistent(self):
        d = design_cascade(DesignParams(48000.0, 300))
        cfs = np.array([s.cf_hz for s in d.sections])
        assert np.all(np.diff(cfs) < 0)
        for x, s in zip(d.positions, d.sections):
            assert s.cf_hz == pytest.approx(greenwood_cf(x), rel=1e-9)

    def test_rotator_identity_all_sections(self):
        d = design_cascade(DesignParams(48000.0, 200))
        for s in d.sections:
            assert abs(s.a0**2 + s.c0**2 - 1.0) < 1e-12

    def test_nyquist_violation_names_section(self):
        # at fs = 30 kHz the base CF of 20.657 kHz exceeds Nyquist
        with pytest.raises(DesignError, match="section 0"):
            design_cascade(DesignParams(30000.0, 10))

    def test_r_override_global(self):
        d = design_cascade(DesignParams(48000.0, 5, r_override=0.9))
        assert all(s.r == 0.9 for s in d.sections)


class TestTransferFunction:
    def test_undamped_quarter_rate(self):
        from carmodel.design import ChannelCoeffs

        c = ChannelCoeffs(cf_hz=12000, theta_r=math.pi / 2, r=1.0, a0=0.0, c0=1.0,
                          h=0.0, g=1.0, section_index=0)
        tf = transfer_function(c)
        assert (tf.b0, tf.b1, tf.b2) == (1.0, 0.0, 1.0)
        assert (tf.a1_den, tf.a2_den) == (0.0, 1.0)

    def test_h_zero_numerator_matches_denominator(self, rng):
        for _ in range(20):
            theta = rng.uniform(0.1, 3.0)
            a0, c0 = rotator_coeffs(theta)
            r = rng.uniform(0.2, 1.0)
            from carmodel.design import ChannelCoeffs

            c = ChannelCoeffs(cf_hz=1, theta_r=theta, r=r, a0=a0, c0=c0, h=0.0,
                              g=1.0, section_index=0)
            tf = transfer_function(c)
            assert tf.b1 == pytest.approx(tf.a1_den, rel=1e-15)
            assert tf.b2 == tf.a2_den

    def test_b1_worked_example(self):
        from carmodel.design import ChannelCoeffs

        c = ChannelCoeffs(cf_hz=1, theta_r=math.pi / 3, r=0.9, a0=0.5,
                          c0=math.sqrt(3) / 2, h=1.0, g=1.0, section_index=0)
        tf = transfer_function(c)
        assert tf.b1 == pytest.approx(-0.1206, abs=1e-4)

    def test_structural_invariants(self, rng):
        for _ in range(30):
            c = random_section(rng)
            tf = transfer_function(c)
            # the state matrix's determinant, r^2 on a designed section
            assert tf.a2_den == c.r * c.r * (c.a0 * c.a0 + c.c0 * c.c0)
            assert tf.a2_den == pytest.approx(c.r * c.r, rel=1e-12)
            assert tf.a1_den == -2.0 * c.a0 * c.r
            assert tf.b0 == c.g
            assert tf.b2 == pytest.approx(c.g * c.r * c.r, rel=1e-12)


class TestPolesZeros:
    def test_simple_pole_pair(self):
        from carmodel.design import ChannelCoeffs

        c = ChannelCoeffs(cf_hz=12000, theta_r=math.pi / 2, r=0.9, a0=0.0, c0=1.0,
                          h=0.5, g=1.0, section_index=0)
        (p1, p2), _ = poles_zeros(c)
        assert p1[0] == pytest.approx(0.9, abs=1e-12)
        assert p2[0] == pytest.approx(0.9, abs=1e-12)
        assert sorted((p1[1], p2[1])) == pytest.approx([-math.pi / 2, math.pi / 2])

    def test_designed_sections_place_poles_and_zeros(self):
        for ratio in (1.0, 0.06):
            d = design_cascade(DesignParams(48000.0, 50, zero_ratio=ratio))
            for s in d.sections:
                (p1, p2), (z1, z2) = poles_zeros(s)
                assert p1[0] == pytest.approx(s.r, abs=1e-9)
                assert p2[0] == pytest.approx(s.r, abs=1e-9)
                assert {round(p1[1], 9), round(p2[1], 9)} == {
                    round(s.theta_r, 9), round(-s.theta_r, 9),
                }
                # h = F * c0 keeps zeros complex at the pole radius, at the
                # angle where cos(phi) = a0 - F * c0^2 / 2 < a0
                assert z1[0] == pytest.approx(s.r, abs=1e-9)
                assert z2[0] == pytest.approx(s.r, abs=1e-9)
                cos_phi = s.a0 - ratio * s.c0 * s.c0 / 2.0
                for _, phi in (z1, z2):
                    assert math.cos(phi) == pytest.approx(cos_phi, abs=1e-9)
                    assert abs(phi) > s.theta_r

    def test_h_above_bound_gives_real_zeros(self):
        a0, c0 = rotator_coeffs(2.7035)
        bound = complex_zero_bound(a0, c0)
        from carmodel.design import ChannelCoeffs

        c = ChannelCoeffs(cf_hz=1, theta_r=2.7035, r=0.9, a0=a0, c0=c0,
                          h=bound + 1e-6, g=1.0, section_index=0)
        _, (z1, z2) = poles_zeros(c)
        assert z1[1] in (0.0, math.pi) or abs(z1[1]) == pytest.approx(math.pi)
        assert z2[1] in (0.0, math.pi) or abs(z2[1]) == pytest.approx(math.pi)

    def test_h_below_bound_complex_above_real(self):
        # crossing the bound flips the numerator discriminant sign
        a0, c0 = rotator_coeffs(2.0)
        bound = complex_zero_bound(a0, c0)
        from carmodel.design import ChannelCoeffs

        def zeros_at(h):
            c = ChannelCoeffs(cf_hz=1, theta_r=2.0, r=0.95, a0=a0, c0=c0, h=h,
                              g=1.0, section_index=0)
            return poles_zeros(c)[1]

        z_below = zeros_at(bound * 0.999)
        assert z_below[0][0] == pytest.approx(0.95, abs=1e-9)
        z_above = zeros_at(bound + 1e-6)
        angles = {abs(z_above[0][1]), abs(z_above[1][1])}
        assert angles <= {0.0, math.pi}


class TestCoeffTable:
    def test_round_trip_bit_exact(self, tmp_path):
        d = design_cascade(DesignParams(44100.0, 37, x_apex=0.1, damping_zeta=0.17))
        path = tmp_path / "coeffs.csv"
        write_coeff_table(d, path)
        d2 = read_coeff_table(path)
        assert d2.sample_rate_hz == pytest.approx(d.sample_rate_hz, rel=1e-12)
        assert d2.positions == d.positions
        for a, b in zip(d.sections, d2.sections):
            assert a == b

    def test_header_and_digits(self, tmp_path):
        d = design_cascade(DesignParams(48000.0, 2))
        path = tmp_path / "coeffs.csv"
        write_coeff_table(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "section,x,cf_hz,theta_r,r,a0,c0,h,g"
        assert len(lines) == 3
        # 12+ significant digits survive
        first = lines[1].split(",")
        assert float(first[2]) == d.sections[0].cf_hz

    @pytest.mark.parametrize("n", [1, 37, 1224])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        d = design_cascade(DesignParams(44100.0, n, x_apex=0.1, damping_zeta=0.17))
        path = tmp_path / "coeffs.csv"
        write_coeff_table(d, path)
        rows = [
            [s.section_index, x, s.cf_hz, s.theta_r, s.r, s.a0, s.c0, s.h, s.g]
            for x, s in zip(d.positions, d.sections)
        ]
        expect = csv_text(["section", "x", "cf_hz", "theta_r", "r", "a0", "c0", "h", "g"], rows)
        assert path.read_bytes() == expect.encode("utf-8")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DesignError):
            read_coeff_table(path)

    def test_rejects_inconsistent_rate(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, 2)), path)
        rows = path.read_text().splitlines()
        cols = rows[2].split(",")
        cols[3] = format(float(cols[3]) * 1.5, ".17g")  # corrupt theta_r
        path.write_text("\n".join([rows[0], rows[1], ",".join(cols)]) + "\n")
        with pytest.raises(DesignError, match="sample rate"):
            read_coeff_table(path)

    @pytest.mark.parametrize(
        "column, field, message",
        [(1, "nan", "non-finite"), (7, "inf", "non-finite"), (8, "-inf", "non-finite"),
         (0, "x", "not a number"), (0, "1.5", "not a number"), (4, "", "not a number")],
    )
    def test_rejects_bad_field(self, tmp_path, column, field, message):
        path = tmp_path / "coeffs.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, 2)), path)
        rows = path.read_text().splitlines()
        cols = rows[1].split(",")
        cols[column] = field
        path.write_text("\n".join([rows[0], ",".join(cols), rows[2]]) + "\n")
        with pytest.raises(DesignError, match=message):
            read_coeff_table(path)

    @pytest.mark.parametrize(
        "edits, message",
        [({4: "1.5"}, r"r out of \(0, 1\]"), ({8: "-2"}, "g must be positive"),
         ({5: "0.2"}, r"a0\^2 \+ c0\^2 != 1"),
         # above Nyquist, with cf_hz set so the implied sample rate still agrees
         ({2: repr(4 * 48000.0 / (2 * math.pi)), 3: "4"}, r"theta_r out of \(0, pi\)")],
        ids=["r", "g", "a0", "theta_r"],
    )
    def test_rejects_invalid_section(self, tmp_path, edits, message):
        path = tmp_path / "coeffs.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, 2)), path)
        rows = path.read_text().splitlines()
        cols = rows[1].split(",")
        for column, field in edits.items():
            cols[column] = field
        path.write_text("\n".join([rows[0], ",".join(cols), rows[2]]) + "\n")
        with pytest.raises(DesignError, match=r"section 0: " + message):
            read_coeff_table(path)

    @pytest.mark.parametrize("swap, message",
                             [(False, "section 0: g must be positive"), (True, "not a number")])
    def test_first_bad_row_wins(self, tmp_path, swap, message):
        # an invalid section ahead of an unparsable row is reported first,
        # and the unparsable row first when it comes first
        path = tmp_path / "coeffs.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, 2)), path)
        header, first, second = path.read_text().splitlines()
        first = first.split(",")
        first[8] = "-2"
        second = second.split(",")
        second[4] = "x"
        rows = [",".join(second), ",".join(first)] if swap else [",".join(first), ",".join(second)]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DesignError, match=message):
            read_coeff_table(path)

    def test_zero_theta_r_rejected_without_warning(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, 3)), path)
        rows = path.read_text().splitlines()
        cols = rows[2].split(",")
        cols[3] = "0"
        rows[2] = ",".join(cols)
        path.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DesignError, match=r"section 1: theta_r out of \(0, pi\)"):
                read_coeff_table(path)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), swap=st.booleans(),
           edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8), _FIELD_EDITS),
                          max_size=3))
    def test_matches_row_by_row_read(self, tmp_path_factory, n, swap, edits):
        path = tmp_path_factory.getbasetemp() / "coeffs_row_by_row.csv"
        write_coeff_table(design_cascade(DesignParams(48000.0, n)), path)
        written = [line.split(",") for line in path.read_text().splitlines()]
        rows = [row[:] for row in written]
        for row, column, edit in edits:
            if row < n:
                field = written[row + 1][column]
                rows[row + 1][column] = edit if isinstance(edit, str) else repr(float(field) * edit)
        if swap:
            rows[1:] = rows[:0:-1]
        text = "\r\n".join(",".join(row) for row in rows) + "\r\n"
        expected = coeff_table_py(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(DesignError) as info:
                    _read_coeff_rows(io.StringIO(text, newline=""))
                assert str(info.value) == expected
            else:
                d = _read_coeff_rows(io.StringIO(text, newline=""))
                assert (list(d.positions), [tuple(s) for s in d.sections],
                        d.sample_rate_hz) == expected

    def test_validate_rejects_non_finite_coefficient(self):
        from carmodel.design import ChannelCoeffs, validate_channel_coeffs

        c = ChannelCoeffs(cf_hz=1, theta_r=math.pi / 3, r=0.9, a0=0.5,
                          c0=math.sqrt(3) / 2, h=math.nan, g=math.nan, section_index=0)
        with pytest.raises(DesignError, match="non-finite"):
            validate_channel_coeffs(c)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("section,x,cf_hz,theta_r,r,a0,c0,h,g\n")
        with pytest.raises(DesignError):
            read_coeff_table(path)
