"""Tests for the samples-to-success estimator (Equation 4)."""

import math
import os
import subprocess
import sys

import pytest

from repro.attack.samples import samples_needed, samples_needed_exact, \
    z_quantile
from repro.errors import AnalysisError


class TestZQuantile:
    def test_standard_values(self):
        assert z_quantile(0.99) == pytest.approx(2.3263, abs=1e-3)
        assert z_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(AnalysisError):
            z_quantile(1.0)

    def test_paper_alpha_is_pinned_exactly(self):
        # Every experiment and example runs at alpha = 0.99, so the
        # Eq-4 sample counts they print rest on this exact double.
        assert z_quantile(0.99) == 2.3263478740408408

    def test_cli_import_does_not_pull_in_scipy(self):
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, repro.cli; "
                 "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "False"


class TestApproximation:
    def test_paper_constant(self):
        # "With alpha = 0.99, 2 x Z^2 is approximately 11."
        assert samples_needed(1.0, alpha=0.99) == pytest.approx(10.82,
                                                                abs=0.05)

    def test_scales_inverse_square(self):
        assert samples_needed(0.1) / samples_needed(1.0) \
            == pytest.approx(100.0)

    def test_zero_correlation_needs_infinite_samples(self):
        assert math.isinf(samples_needed(0.0))

    def test_monotone_in_alpha(self):
        assert samples_needed(0.5, alpha=0.999) > samples_needed(0.5,
                                                                 alpha=0.9)

    def test_table2_headline_numbers(self):
        # Section V-C: FSS+RTS at M=16 needs ~961x the baseline samples.
        ratio = samples_needed(0.0323) / samples_needed(1.0)
        assert ratio == pytest.approx(961, rel=0.03)


class TestExactForm:
    def test_approx_converges_to_exact_for_small_rho(self):
        for rho in (0.05, 0.02, 0.01):
            exact = samples_needed_exact(rho)
            approx = samples_needed(rho)
            assert exact == pytest.approx(approx, rel=0.02)

    def test_exact_at_perfect_correlation(self):
        assert samples_needed_exact(1.0) == 3.0

    def test_rejects_out_of_range(self):
        with pytest.raises(AnalysisError):
            samples_needed(1.5)
        with pytest.raises(AnalysisError):
            samples_needed_exact(-2.0)
