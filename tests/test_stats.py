import numpy as np
import pytest
from scipy import special, stats as sps

from mbridge import ks_distance, norm_cdf, norm_pdf, norm_ppf


def test_ppf_matches_reference_across_the_unit_interval():
    q = np.concatenate([
        np.linspace(1e-12, 1e-3, 500),
        np.linspace(1e-3, 1 - 1e-3, 2001),
        1.0 - np.linspace(1e-12, 1e-3, 500),
    ])
    ours = norm_ppf(q)
    ref = special.ndtri(q)
    assert np.max(np.abs(ours - ref)) < 1e-13 * (1 + np.max(np.abs(ref)))


def test_ppf_cdf_round_trip():
    x = np.linspace(-8.0, 5.0, 4001)
    back = norm_ppf(norm_cdf(x))
    assert np.max(np.abs(back - x)) < 1e-9


def test_ppf_cdf_round_trip_saturating_tail():
    # above x ~ 5.5 the cdf quantizes against 1, so the best any inverse
    # can do is eps / pdf(x); check we stay within that conditioning bound
    x = np.linspace(5.0, 8.0, 601)
    back = norm_ppf(norm_cdf(x))
    bound = np.finfo(float).eps / norm_pdf(x)
    assert np.max(np.abs(back - x) / bound) < 1.0


def test_ppf_endpoints_and_validation():
    assert norm_ppf(0.0) == -np.inf
    assert norm_ppf(1.0) == np.inf
    assert norm_ppf(0.5) == 0.0
    with pytest.raises(Exception):
        norm_ppf(-0.1)
    with pytest.raises(Exception):
        norm_ppf(1.1)


def test_cdf_matches_reference():
    x = np.linspace(-37.0, 9.0, 20001)
    ours = norm_cdf(x)
    ref = special.ndtr(x)
    shown = ref > 1e-300
    assert np.all(np.abs(ours - ref)[shown] <= 1e-12 * ref[shown])
    assert np.all(ours[~shown] <= 1e-290)


def test_ppf_within_a_few_ulp_of_ndtri():
    q = np.concatenate([np.logspace(-300, -1, 3000),
                        np.linspace(0.1, 0.9, 8001),
                        1.0 - np.logspace(-16, -1, 1000)])
    ours = norm_ppf(q)
    ref = special.ndtri(q)
    assert np.all(np.abs(ours - ref) <= 8 * np.spacing(np.abs(ref)))


def test_pdf_cdf_consistency():
    # numerical derivative of the cdf reproduces the density
    x = np.linspace(-5, 5, 101)
    eps = 1e-6
    deriv = (norm_cdf(x + eps) - norm_cdf(x - eps)) / (2 * eps)
    assert np.max(np.abs(deriv - norm_pdf(x))) < 1e-9


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(7)
    a = rng.normal(size=400)
    b = rng.normal(0.3, 1.1, size=523)
    ours = ks_distance(a, b)
    ref = sps.ks_2samp(a, b).statistic
    assert abs(ours - ref) < 1e-12


def test_ks_distance_identical_samples_is_zero():
    rng = np.random.default_rng(11)
    a = rng.normal(size=100)
    assert ks_distance(a, a.copy()) == 0.0


def test_ks_distance_disjoint_supports_is_one():
    assert ks_distance(np.arange(5.0), np.arange(5.0) + 10.0) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_distance_refuses_non_finite_samples(bad):
    good = np.arange(5.0)
    with pytest.raises(ValueError, match="finite"):
        ks_distance(np.append(good, bad), good)
    with pytest.raises(ValueError, match="finite"):
        ks_distance(good, np.append(good, bad))
