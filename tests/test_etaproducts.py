import pytest

from oracles import (
    ETA_NEWFORMS,
    EtaProductSpec,
    eta_product_qexp,
    newform_ap,
)


def test_leading_power_validation():
    EtaProductSpec(factors=((1, 24),), truncation=10)  # Delta, t = 1
    with pytest.raises(ValueError):
        EtaProductSpec(factors=((1, 1),), truncation=10)  # 24 does not divide 1


def test_delta_coefficients():
    # eta(tau)^24 = Delta; tau(n) for small n
    spec = EtaProductSpec(factors=((1, 24),), truncation=12)
    coeffs = eta_product_qexp(spec)
    # normalized expansion starts at the constant term of q^{-1} * Delta
    assert coeffs[0] == 1
    taus = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612}
    for p, tau in taus.items():
        assert newform_ap(((1, 24),), p) == tau


def test_level_11_newform():
    # eta(tau)^2 eta(11 tau)^2: a_2 = -2, a_3 = -1, a_5 = 1, a_7 = -2
    factors = ETA_NEWFORMS[11]
    assert [newform_ap(factors, p) for p in (2, 3, 5, 7, 13)] == [
        -2,
        -1,
        1,
        -2,
        4,
    ]


def test_level_14_and_15_traces():
    assert newform_ap(ETA_NEWFORMS[14], 3) == -2
    assert newform_ap(ETA_NEWFORMS[14], 5) == 0
    assert newform_ap(ETA_NEWFORMS[15], 2) == -1
    assert newform_ap(ETA_NEWFORMS[15], 7) == 0


def test_expansion_is_integral_and_deterministic():
    spec = EtaProductSpec(factors=ETA_NEWFORMS[15], truncation=40)
    a = eta_product_qexp(spec)
    b = eta_product_qexp(spec)
    assert a == b
    assert all(isinstance(c, int) for c in a)


def test_ap_requires_index_in_range():
    with pytest.raises(ValueError):
        newform_ap(((1, 24),), 0)
