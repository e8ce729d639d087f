import math

import pytest
from hypothesis import given, strategies as st

from focklab import DivergenceError, MLParams, log_gamma, mittag_leffler
from focklab.fixtures import load_log_gamma, load_mittag_leffler


class TestLogGamma:
    def test_against_reference_table(self):
        for x, want in load_log_gamma():
            assert log_gamma(x) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x)
        assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), rel=1e-11, abs=1e-11)


class TestMLParams:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_parameters(self, a, b):
        with pytest.raises(ValueError):
            MLParams(a, b)


class TestMittagLeffler:
    def test_against_reference_table(self):
        for a, b, x, want in load_mittag_leffler():
            got = mittag_leffler(MLParams(a, b), x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_at_zero(self):
        assert mittag_leffler(MLParams(0.5, 0.5), 0.0) == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-14
        )

    @given(st.floats(min_value=0.0, max_value=30.0))
    def test_exponential_special_case(self, x):
        # E_{1,1}(x) = e^x
        assert mittag_leffler(MLParams(1.0, 1.0), x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_cosh_special_case(self):
        # E_{2,1}(x^2) = cosh(x)
        assert mittag_leffler(MLParams(2.0, 1.0), 4.0) == pytest.approx(math.cosh(2.0), rel=1e-13)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            mittag_leffler(MLParams(1.0, 1.0), -1.0)

    def test_overflow_signalled(self):
        with pytest.raises(DivergenceError):
            mittag_leffler(MLParams(1.0, 1.0), 1000.0)
