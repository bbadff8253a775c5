import numpy as np
import pytest

from carmodel.design import DesignParams, design_cascade


@pytest.fixture(scope="session")
def default_design_20():
    """Default-parameter design with 20 sections (full place range)."""
    return design_cascade(DesignParams(48000.0, 20))


@pytest.fixture(scope="session")
def fast_design():
    """High-CF design whose slowest mode decays within ~1k samples."""
    return design_cascade(DesignParams(48000.0, 10, x_apex=0.6))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0x5EED)


def random_section(rng, r_range=(0.5, 0.995)):
    """A random valid section (coupled-form coefficients plus unity-DC gain)."""
    from carmodel.design import ChannelCoeffs, dc_gain_coeff, zero_coeff
    import math

    theta = rng.uniform(0.02, 3.0)
    r = rng.uniform(*r_range)
    a0, c0 = math.cos(theta), math.sin(theta)
    h = zero_coeff(a0, c0)
    g = dc_gain_coeff(a0, c0, h, r)
    return ChannelCoeffs(
        cf_hz=theta * 48000.0 / (2 * math.pi),
        theta_r=theta,
        r=r,
        a0=a0,
        c0=c0,
        h=h,
        g=g,
        section_index=0,
    )


def float_rows(design, samples):
    """The row blocks of samples through a fresh float stream of design."""
    from carmodel.core import CascadeState, CascadeStream, stream_rows

    return stream_rows(CascadeStream(design, CascadeState(design.n_sections)), samples)
