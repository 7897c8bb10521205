import pytest

from quartic_galois.curve import SingularFiberReport, SingularPoint, singular_points
from quartic_galois.reduction import inertia_certificate


@pytest.fixture(scope="module")
def certs(curve=None):
    from quartic_galois.curve import TernaryQuarticForm

    c = TernaryQuarticForm.bundled_curve()
    return {p: inertia_certificate(singular_points(c, p)) for p in (7, 11, 83)}


def test_transvection_flags(certs):
    assert certs[7].transvection is True
    assert certs[11].transvection is True
    assert certs[83].transvection is False
    assert certs[83].node_count == 2


def test_statement_and_facts(certs):
    assert certs[7].inertia_order_statement == (
        "cyclic of order ell for every prime ell != 7"
    )
    for c in certs.values():
        assert "TF-PICLEF" in c.trusted_fact_refs


def test_rejects_incomplete_report():
    rep = SingularFiberReport(p=5, points=(), complete=False)
    with pytest.raises(ValueError):
        inertia_certificate(rep)


def test_rejects_smooth_fiber():
    rep = SingularFiberReport(p=5, points=(), complete=True)
    with pytest.raises(ValueError):
        inertia_certificate(rep)


def test_rejects_non_ordinary_node():
    pt = SingularPoint(
        coords=(0, 0, 1),
        field_degree=1,
        ordinary_node=False,
        total_space_regular=True,
    )
    with pytest.raises(ValueError):
        inertia_certificate(SingularFiberReport(p=5, points=(pt,), complete=True))


def test_rejects_unclassified_point():
    pt = SingularPoint(
        coords=(0, 0, 1),
        field_degree=2,
        ordinary_node=None,
        total_space_regular=None,
    )
    with pytest.raises(ValueError):
        inertia_certificate(SingularFiberReport(p=5, points=(pt,), complete=True))
