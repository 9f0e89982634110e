"""The one integer rule, rng.check_integer, and the counts it checks.

Every count the package takes (seeds, trace lengths, cascade depths,
block sizes, pyramid scales, wavelet levels, cumulant orders, window
widths, lags and variate counts) is an int or a numpy integer, never a
bool or a float, and each owner refuses anything else in its own words.
"""
import re

import numpy as np
import pytest

from scalefit.aggregate import aggregate, build_pyramid, check_block_size, dyadic_scales
from scalefit.cumulants import check_order, cumulant_scaling_table, sample_cumulants
from scalefit.rng import SEED_MAX, check_integer, check_seed, make_rng, standard_normals
from scalefit.scaling import check_window_width, fit_loglog, locality_curve
from scalefit.synth import (CascadeSpec, FgnSpec, check_depth, check_fgn_length,
                            fgn_autocovariance)
from scalefit.wavelet import WaveletSpec, default_fit_range, logscale_diagram, max_levels


class TestCheckInteger:
    def test_returns_python_int(self):
        value = check_integer(np.uint64(SEED_MAX), "n", lambda n: n > 0, "positive")
        assert type(value) is int and value == SEED_MAX

    def test_predicate_sees_python_int(self):
        """np.uint64(0) - 1 would wrap around; the int it is converted to does not."""
        with pytest.raises(ValueError, match=r"^n must be at least 1, got 0$"):
            check_integer(np.uint64(0), "n", lambda n: n - 1 >= 0, "at least 1")

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, np.float32(1.0),
                                       "1", None, 1 + 0j])
    def test_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(ValueError) as excinfo:
            check_integer(value, "n", lambda n: True, "an integer")
        assert str(excinfo.value) == f"n must be an integer, got {value}"


# (owner called on one value, a value it accepts, the start of its message)
OWNERS = [
    pytest.param(lambda v: check_seed(v, "n"), 4, "n must be an unsigned 64-bit integer",
                 id="check_seed"),
    pytest.param(lambda v: check_fgn_length(v, "n"), 16, "n must be a power of two >= 16",
                 id="check_fgn_length"),
    pytest.param(lambda v: check_depth(v, "n"), 4, "n must be an integer >= 2", id="check_depth"),
    pytest.param(lambda v: check_block_size(v, "n"), 4, "n must be a positive integer",
                 id="check_block_size"),
    pytest.param(lambda v: check_order(v, "n"), 4, "n must be in 1..6", id="check_order"),
    pytest.param(lambda v: check_window_width(v, "n"), 4, "n must be at least 3 octaves",
                 id="check_window_width"),
    pytest.param(lambda v: fgn_autocovariance(0.8, 1.0, v), 4,
                 "lag must be a nonnegative integer", id="fgn_autocovariance"),
    pytest.param(lambda v: standard_normals(make_rng(0), v), 4,
                 "count must be a nonnegative integer", id="standard_normals"),
]


@pytest.mark.parametrize("call, good, must_be", OWNERS)
@pytest.mark.parametrize("kind", [float, bool, np.float64, str],
                         ids=["float", "bool", "np.float64", "str"])
def test_owner_refuses_non_integer(call, good, must_be, kind):
    value = kind(good)
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{must_be}, got {value}"


@pytest.mark.parametrize("call, good, must_be", OWNERS)
@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_owner_accepts_numpy_integer(call, good, must_be, kind):
    assert np.array_equal(call(kind(good)), call(good))


@pytest.fixture(scope="module")
def samples():
    return np.random.default_rng(3).normal(size=4096)


@pytest.fixture(scope="module")
def pyramid(samples):
    return build_pyramid(samples)


# library calls that ended in a TypeError traceback, took True for 1, or
# took an integral float, each with the parameter its ValueError names
LIBRARY_CALLS = [
    pytest.param(lambda x, p: FgnSpec(0.8, 4096.0), "length", id="FgnSpec-length-float"),
    pytest.param(lambda x, p: logscale_diagram(x, WaveletSpec("haar", 4.0)), "levels",
                 id="logscale_diagram-levels-float"),
    pytest.param(lambda x, p: sample_cumulants(x, 2.0), "max_order",
                 id="sample_cumulants-float"),
    pytest.param(lambda x, p: cumulant_scaling_table(p, 3.0), "max_order",
                 id="cumulant_scaling_table-float"),
    pytest.param(lambda x, p: standard_normals(make_rng(0), 4.0), "count",
                 id="standard_normals-float"),
    pytest.param(lambda x, p: WaveletSpec("haar", True), "levels", id="WaveletSpec-bool"),
    pytest.param(lambda x, p: aggregate(x, True), "block size", id="aggregate-bool"),
    pytest.param(lambda x, p: cumulant_scaling_table(p, True), "max_order",
                 id="cumulant_scaling_table-bool"),
    pytest.param(lambda x, p: locality_curve(cumulant_scaling_table(p, 2), 2, 4.5),
                 "window_width", id="locality_curve-half-octave"),
    pytest.param(lambda x, p: fit_loglog(cumulant_scaling_table(p, 2), True), "order",
                 id="fit_loglog-bool"),
    pytest.param(lambda x, p: locality_curve(cumulant_scaling_table(p, 2), 2.0, 4), "order",
                 id="locality_curve-order-float"),
    pytest.param(lambda x, p: aggregate(x, 4.0), "block size", id="aggregate-float"),
    pytest.param(lambda x, p: fgn_autocovariance(0.8, 1.0, 2.0), "lag",
                 id="fgn_autocovariance-float"),
    pytest.param(lambda x, p: FgnSpec(0.8, 4096, 1.0, 3.0), "seed", id="FgnSpec-seed-float"),
    pytest.param(lambda x, p: CascadeSpec(4.0), "depth", id="CascadeSpec-depth-float"),
    pytest.param(lambda x, p: dyadic_scales(4096.7), "length", id="dyadic_scales-float"),
    pytest.param(lambda x, p: dyadic_scales(True), "length", id="dyadic_scales-bool"),
    pytest.param(lambda x, p: max_levels(4096.0), "length", id="max_levels-float"),
    pytest.param(lambda x, p: default_fit_range(9.0), "levels", id="default_fit_range-float"),
    pytest.param(lambda x, p: default_fit_range(np.float64(9)), "levels",
                 id="default_fit_range-np.float64"),
]


@pytest.mark.parametrize("call, name", LIBRARY_CALLS)
def test_library_call_refuses_non_integer_count(samples, pyramid, call, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(samples, pyramid)
