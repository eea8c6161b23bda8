"""Flux recurrence, Taylor coefficients, and both inversions."""

import warnings

import numpy as np
import pytest

from chaintomo import (
    CosineSumModel,
    DegenerateError,
    InversionError,
    SpecError,
    fit_trace,
    flux_chains,
    spectral_couplings,
    spectral_signal,
)
from chaintomo.reference import (
    delta_coefficients,
    eta_coefficients,
    invert_couplings,
    mu_coefficients,
)

from _bench import BENCH_J, ising_spec, mu_closed, xx_spec, xy_spec


class TestDeltaTable:
    def test_first_orders_by_hand(self):
        # chain (c1, c2) = (1.3, 0.7):
        #   delta_1^(0) = 1
        #   delta_2^(1) = +c1,  delta_1^(1) = 0
        #   delta_1^(2) = -c1^2,  delta_3^(2) = -c1 c2
        # row j - 1 of the table holds node j
        tab = delta_coefficients(np.array([1.3, 0.7]), 2)
        assert tab.shape == (3, 3)
        assert tab[0, 0] == 1.0
        assert tab[1, 0] == 0.0
        assert tab[0, 1] == 0.0
        assert tab[1, 1] == 1.3
        assert tab[0, 2] == pytest.approx(-1.3**2, abs=1e-15)
        assert tab[2, 2] == pytest.approx(-1.3 * 0.7, abs=1e-15)

    def test_light_cone_entries_are_exact_zeros(self):
        rng = np.random.default_rng(4)
        links = rng.uniform(0.5, 1.5, 6)
        tab = delta_coefficients(links, 12)
        for j in range(1, 8):
            for l in range(j - 1):
                assert tab[j - 1, l] == 0.0

    def test_parity_entries_are_exact_zeros(self):
        # only orders with l - (j-1) even can be reached from node 1
        rng = np.random.default_rng(5)
        tab = delta_coefficients(rng.uniform(0.5, 1.5, 5), 11)
        for j in range(1, 7):
            for l in range(12):
                if (l - (j - 1)) % 2 == 1:
                    assert tab[j - 1, l] == 0.0

    def test_rejects_negative_order(self):
        with pytest.raises(SpecError, match="max_order must be >= 0"):
            delta_coefficients(np.array([1.0]), -1)


class TestMuCoefficients:
    def test_single_40_percent_link(self):
        # one link: signal is cos(2 c t), so mu_1 = -2 c^2
        assert mu_coefficients(np.array([1.40]), 1)[0] == pytest.approx(
            -3.92, abs=1e-12
        )

    def test_benchmark_second_order_value(self):
        # (2/3)(J1^4 + J1^2 J2^2) at J1=1.40, J2=1.48
        mu = mu_coefficients(BENCH_J, 2)
        assert mu[1] == pytest.approx(5.423189333333333, abs=1e-12)

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            links = rng.uniform(0.5, 1.5, 6)
            mu = mu_coefficients(links, 4)
            ref = mu_closed(links)
            np.testing.assert_allclose(mu, ref, rtol=1e-13)

    def test_orders_beyond_links_rejected(self):
        with pytest.raises(SpecError, match="2 orders requested but chain has only 1 links"):
            mu_coefficients(np.array([1.0]), 2)


class TestEtaCoefficients:
    def test_hand_values(self):
        # A=(0.5,0.5), omega=(1,2):
        #   eta_1 = -(1/2)(0.5*1 + 0.5*4)  = -1.25
        #   eta_2 = +(1/24)(0.5*1 + 0.5*16) = 8.5/24
        fit = CosineSumModel(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        eta = eta_coefficients(fit, 2)
        assert eta[0] == pytest.approx(-1.25, abs=1e-15)
        assert eta[1] == pytest.approx(8.5 / 24.0, abs=1e-15)

    def test_dc_never_enters(self):
        base = CosineSumModel(np.array([0.7]), np.array([2.0]))
        with_dc = CosineSumModel(np.array([0.7]), np.array([2.0]), dc=0.3)
        np.testing.assert_array_equal(
            eta_coefficients(base, 3), eta_coefficients(with_dc, 3)
        )

    def test_exact_fit_reproduces_mu(self):
        # an exact spectral fit of a chain must have eta_j = mu_j
        from scipy.linalg import eigh_tridiagonal

        links = np.array([1.1, 0.6, 0.9])
        lam, vec = eigh_tridiagonal(np.zeros(4), links)
        fit = CosineSumModel(vec[0, :] ** 2, np.abs(2.0 * lam))
        np.testing.assert_allclose(
            eta_coefficients(fit, 3), mu_coefficients(links, 3), atol=1e-12
        )

    def test_takes_only_a_cosine_sum_model(self):
        class Fake:
            amplitudes = np.array([1.0])
            frequencies = np.array([1.0])

        for fit in (Fake(), (np.array([1.0]), np.array([1.0]))):
            with pytest.raises(SpecError, match="eta_coefficients takes a CosineSumModel"):
                eta_coefficients(fit, 1)


class TestInversion:
    def test_round_trips_random_chains(self):
        rng = np.random.default_rng(21)
        for m in (1, 3, 5, 8):
            links = rng.uniform(0.5, 1.5, m)
            recovered = invert_couplings(mu_coefficients(links, m))
            np.testing.assert_allclose(recovered, links, atol=1e-10)

    def test_returns_magnitudes_for_signed_chains(self):
        links = np.array([1.0, -0.8, 0.9])
        recovered = invert_couplings(mu_coefficients(links, 3))
        np.testing.assert_allclose(recovered, np.abs(links), atol=1e-10)

    def test_large_negative_radicand_raises(self):
        # mu_1 is strictly negative for any real chain, so eta_1 = +2
        # cannot come from one: the inversion must refuse loudly
        with pytest.raises(InversionError) as exc_info:
            invert_couplings(np.array([2.0]))
        assert exc_info.value.link == 1
        assert exc_info.value.radicand == pytest.approx(-1.0, abs=1e-12)

    def test_small_negative_radicand_clamps_to_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovered = invert_couplings(np.array([1e-9]))
        assert recovered[0] == 0.0

    def test_zero_link_makes_rest_degenerate(self):
        # eta_1 = 0 estimates c_1 = 0; c_2 is then unidentifiable because
        # no signal ever crosses the first link
        with pytest.raises(DegenerateError) as exc_info:
            invert_couplings(np.array([0.0, 0.3]))
        assert exc_info.value.link == 2

    def test_exact_eleven_link_round_trip_is_never_degenerate(self):
        # the order-22 slope is about 1e-7 of mu_11: small, but far from
        # the zero an earlier vanishing link would give
        rng = np.random.default_rng(31)
        for _ in range(10):
            links = rng.uniform(0.5, 1.5, 11)
            try:
                recovered = invert_couplings(mu_coefficients(links, 11))
            except InversionError:
                continue
            np.testing.assert_allclose(recovered, links, atol=1e-6)

    def test_slope_lost_to_rounding_is_named(self):
        rng = np.random.default_rng(2)
        links = rng.uniform(0.5, 1.5, 31)
        with pytest.raises((DegenerateError, InversionError)) as exc_info:
            invert_couplings(mu_coefficients(links, 31))
        assert "estimated at zero" not in str(exc_info.value)


def _exact_fit(links) -> CosineSumModel:
    """The cosine sum a chain's boundary signal is, from its eigenpairs."""
    from scipy.linalg import eigh_tridiagonal

    m = len(links)
    lam, vec = eigh_tridiagonal(np.zeros(m + 1), np.asarray(links, dtype=float))
    weight = vec[0] ** 2
    k = (m + 1) // 2  # positive eigenvalues, each paired with its negative
    dc = float(weight[m // 2]) if m % 2 == 0 else None
    return CosineSumModel(2.0 * weight[-k:], 2.0 * lam[-k:], dc=dc)


def _model_chains(m: int, rng):
    """The flux chains of m links each model has (ising: odd m >= 3 only)."""
    specs = [
        xx_spec(rng.uniform(0.5, 1.5, m)),
        xy_spec(rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, m)),
    ]
    if m % 2 == 1 and m >= 3:
        n = (m + 1) // 2
        specs.append(ising_spec(rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.5, 1.5, n)))
    return [fc for spec in specs for fc in flux_chains(spec)]


class TestSpectralInversion:
    @pytest.mark.parametrize("m", range(1, 32))
    def test_exact_spectrum_round_trips(self, m):
        rng = np.random.default_rng(100 + m)
        for fc in _model_chains(m, rng):
            assert fc.m == m
            recovered = spectral_couplings(_exact_fit(fc.links))
            np.testing.assert_allclose(recovered, np.abs(fc.links), rtol=0, atol=1e-8)

    def test_agrees_with_the_taylor_route(self):
        # a perturbed chain spectrum with unit mass is still the spectrum of
        # one zero-diagonal chain, so both routes must find the same links
        rng = np.random.default_rng(8)
        for m in range(1, 8):
            for _ in range(5):
                exact = _exact_fit(rng.uniform(0.5, 1.5, m))
                A = exact.amplitudes * rng.uniform(0.9, 1.1, exact.n_terms)
                dc = None if exact.dc is None else exact.dc * rng.uniform(0.9, 1.1)
                mass = A.sum() + (dc or 0.0)
                fit = CosineSumModel(
                    A / mass,
                    exact.frequencies * rng.uniform(0.99, 1.01, exact.n_terms),
                    dc=None if dc is None else dc / mass,
                )
                np.testing.assert_allclose(
                    spectral_couplings(fit),
                    invert_couplings(eta_coefficients(fit, m)),
                    rtol=0,
                    atol=1e-10,
                )

    def test_takes_only_a_cosine_sum_model(self):
        fit = CosineSumModel(np.array([1.0]), np.array([2.0]))
        with pytest.raises(SpecError, match="spectral_couplings takes a CosineSumModel, got tuple$"):
            spectral_couplings((fit.amplitudes, fit.frequencies))

    @pytest.mark.parametrize("fit, weight", [
        (CosineSumModel(np.array([0.7, -0.1]), np.array([1.0, 3.0]), dc=0.4), -0.05),
        (CosineSumModel(np.array([0.6, 0.5]), np.array([1.0, 3.0]), dc=-0.1), -0.1),
    ], ids=["amplitude", "dc"])
    def test_negative_weight_is_an_inversion_error(self, fit, weight):
        with pytest.raises(InversionError) as exc_info:
            spectral_couplings(fit)
        assert exc_info.value.link is None
        assert exc_info.value.radicand == pytest.approx(weight)

    @pytest.mark.parametrize("amplitudes, frequencies, link", [
        # six nodes for five links, but one line of zero weight drops two
        ([0.6, 0.0, 0.4], [1.0, 2.0, 3.0], 4),
        ([0.5, 0.5], [2.0, 2.0], 2),
    ], ids=["zero-weight", "coincident-lines"])
    def test_too_few_nodes_is_degenerate(self, amplitudes, frequencies, link):
        fit = CosineSumModel(np.array(amplitudes), np.array(frequencies))
        with pytest.raises(DegenerateError) as exc_info:
            spectral_couplings(fit)
        assert exc_info.value.link == link


class TestNodeCount:
    @pytest.mark.parametrize("m", range(1, 12))
    def test_one_count_from_trace_to_links(self, m):
        # an m-link chain has m + 1 nodes: the fit's poles, which pair into
        # (m+1)//2 lines plus a dc term when m + 1 is odd, and one node
        # more than the links the inverter counts off the fit
        rng = np.random.default_rng(300 + m)
        times = np.pi / 25 * np.arange(25 * (m + 1))
        for fc in _model_chains(m, rng):
            fit = fit_trace(spectral_signal(fc.links, times), m + 1)
            assert fit.n_terms == (m + 1) // 2
            assert (fit.dc is not None) == (m % 2 == 0)
            np.testing.assert_allclose(
                spectral_couplings(fit), np.abs(fc.links), rtol=0, atol=1e-8
            )
