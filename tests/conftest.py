import math

import numpy as np
import pytest

from confocal_opo import OpoParams


@pytest.fixture
def plane_params():
    """Plane-pump configuration with l_coh very close to 40 um."""
    return OpoParams(
        lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9, w_p=math.inf
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
