import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from merge_planner.schedule import (
    NoiseSchedule,
    make_cosine_schedule,
    read_schedule_csv,
    validate_schedule,
    write_schedule_csv,
)


class TestCosineSchedule:
    def test_t2_closed_form(self):
        sched = make_cosine_schedule(2)
        np.testing.assert_array_equal(sched.alpha[[0, 2]], [1.0, 0.0])
        assert sched.alpha[1] == pytest.approx(0.7071067811865476, abs=0.0)

    def test_t1_boundary_only(self):
        sched = make_cosine_schedule(1)
        np.testing.assert_array_equal(sched.alpha, [1.0, 0.0])
        np.testing.assert_array_equal(sched.sigma, [0.0, 1.0])

    def test_t32_midpoint_symmetry(self):
        sched = make_cosine_schedule(32)
        assert sched.alpha[16] == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
        assert sched.sigma[16] == pytest.approx(np.sin(np.pi / 4), abs=1e-15)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            make_cosine_schedule(0)

    def test_exact_endpoints(self):
        for T in (1, 2, 7, 32):
            sched = make_cosine_schedule(T)
            assert sched.alpha[0] == 1.0 and sched.sigma[0] == 0.0
            assert sched.alpha[T] == 0.0 and sched.sigma[T] == 1.0

    def test_strict_monotonicity_everywhere(self):
        sched = make_cosine_schedule(64)
        assert np.all(sched.alpha[:-1] - sched.alpha[1:] > 0)
        assert np.all(sched.sigma[1:] - sched.sigma[:-1] > 0)


class TestValidateSchedule:
    def test_cosine_is_clean(self):
        assert validate_schedule(make_cosine_schedule(32)).ok

    def test_all_cosine_T_pass(self):
        # full sweep per the stated range
        for T in range(1, 1025):
            assert validate_schedule(make_cosine_schedule(T)).ok

    def test_boundary_violation_reported(self):
        sched = make_cosine_schedule(4)
        alpha = sched.alpha.copy()
        alpha[0] = 0.9
        report = validate_schedule(NoiseSchedule(alpha=alpha, sigma=sched.sigma))
        assert not report.ok
        assert any("boundary alpha[0]≠1" in v.message for v in report.violations)

    def test_monotonicity_violation_index(self):
        sched = make_cosine_schedule(8)
        alpha = sched.alpha.copy()
        alpha[3] = alpha[2] + 0.01  # bump above its predecessor
        report = validate_schedule(NoiseSchedule(alpha=alpha, sigma=sched.sigma))
        hits = [v for v in report.violations if v.code == "alpha_monotonicity"]
        assert [v.index for v in hits] == [3]

    def test_unit_norm_violation(self):
        sched = make_cosine_schedule(4)
        sigma = sched.sigma.copy()
        sigma[2] += 1e-6
        report = validate_schedule(NoiseSchedule(alpha=sched.alpha, sigma=sigma))
        hits = [v for v in report.violations if v.code == "unit_norm"]
        assert hits and hits[0].index == 2
        assert hits[0].magnitude > 1e-12


class TestScheduleConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alpha=[1.0, 0.5, 0.0], sigma=[0.0, 1.0])

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alpha=[1.0], sigma=[0.0])

    def test_immutable(self):
        sched = make_cosine_schedule(4)
        with pytest.raises(ValueError):
            sched.alpha[0] = 0.5


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        sched = make_cosine_schedule(16)
        path = tmp_path / "sched.csv"
        write_schedule_csv(sched, path)
        back = read_schedule_csv(path)
        np.testing.assert_array_equal(back.alpha, sched.alpha)
        # sigma is recomputed as sqrt(1 - alpha^2), identical up to rounding
        np.testing.assert_allclose(back.sigma, sched.sigma, atol=1e-12)
        assert validate_schedule(back).ok

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 40),
            elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
        )
    )
    def test_round_trip_any_alpha(self, alpha):
        sigma = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sched.csv"
            write_schedule_csv(NoiseSchedule(alpha=alpha, sigma=sigma), path)
            back = read_schedule_csv(path)
        assert back.alpha.tobytes() == alpha.tobytes()
        assert back.sigma.tobytes() == sigma.tobytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n1,0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_schedule_csv(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,alpha\n0,1.0\n2,0.0\n")
        with pytest.raises(ValueError):
            read_schedule_csv(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,alpha\n0,1.0\n1,0.5\n1,0.6\n2,0.0\n")
        with pytest.raises(ValueError, match="t=1 more than once"):
            read_schedule_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,alpha\n")
        with pytest.raises(ValueError, match="CSV 't,alpha' has a header row but no data rows"):
            read_schedule_csv(path)
