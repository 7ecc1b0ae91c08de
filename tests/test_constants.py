"""The written-out constants equal scipy.constants bit for bit.

EPS0 is the CODATA 2022 value, which scipy.constants carries from
scipy 1.15 on.
"""

import scipy.constants

from tls_scope import constants


def test_constants_match_scipy():
    assert constants.E_CHARGE == scipy.constants.e
    assert constants.H_PLANCK == scipy.constants.h
    assert constants.HBAR == scipy.constants.hbar
    assert constants.EPS0 == scipy.constants.epsilon_0
