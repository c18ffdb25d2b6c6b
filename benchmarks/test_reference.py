"""Tests of the benchmark's own reference values.

    python3 -m pytest benchmarks
"""

import math

import numpy as np
import pytest
from scipy import special, stats

import reference as ref

BETA = ref.Law.parse("beta:1.5,1")
BETA_2 = ref.Law.parse("beta:2,1.5")
DISCRETE = ref.Law.parse("discrete:0.8@0.5;0.3@0.5")


def test_parse_reads_both_grammars():
    assert (BETA.kind, BETA.alpha, BETA.beta) == ("beta", 1.5, 1.0)
    assert DISCRETE.values == (0.8, 0.3) and DISCRETE.probs == (0.5, 0.5)
    with pytest.raises(ValueError):
        ref.Law.parse("gamma:1,2")


@pytest.mark.parametrize("t", [0.1, 0.3, 0.7])
def test_beta_quadrature_matches_the_beta_function(t):
    exact = math.exp(special.betaln(1.5 - t, 1.0 + t) - special.betaln(1.5, 1.0))
    assert ref.moment(BETA, t) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("law", [BETA, BETA_2])
def test_kappa_of_beta_laws_is_alpha_minus_beta(law):
    assert ref.kappa(law) == pytest.approx(law.alpha - law.beta, abs=1e-12)


def test_kappa_of_the_discrete_law_solves_the_moment_equation():
    k = ref.kappa(DISCRETE)
    assert 0.5 * (0.25 ** k + (7.0 / 3.0) ** k) == pytest.approx(1.0, abs=1e-14)
    assert k == pytest.approx(0.449899, abs=1e-6)


def test_m_matches_digamma_closed_forms():
    # for Beta(a, b) with kappa = a - b, m = digamma(a) - digamma(b)
    assert ref.moment_log(BETA, 0.5) == pytest.approx(2.0 - 2.0 * math.log(2.0), rel=1e-10)
    assert ref.moment_log(BETA_2, 0.5) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-10)


def test_lambda_scale_of_beta_1_5_1():
    m = ref.moment_log(BETA, 0.5)
    lam = ref.lambda_scale(0.5, ref.ck_beta(BETA, 0.5), m)
    assert ref.ck_beta(BETA, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert lam == pytest.approx(math.pi * math.sqrt(2.0) / 2.0 * (1.0 - math.log(2.0)),
                                rel=1e-10)
    assert ref.laplace_limit(lam, 0.5, 1.0) == pytest.approx(math.exp(-lam))


def test_renewal_series_follows_the_exact_beta_law():
    # Chamayou-Letac: for omega ~ Beta(a, b), 1/R ~ Beta(a - b, b)
    r = ref.renewal_series(BETA_2, 20_000, np.random.default_rng(1))
    assert stats.kstest(1.0 / r, stats.beta(0.5, 1.5).cdf).pvalue > 1e-3


@pytest.mark.parametrize("law", [BETA, BETA_2])
def test_goldie_estimate_agrees_with_the_beta_closed_form(law):
    k = ref.kappa(law)
    c_k, se = ref.ck_goldie(law, k, ref.moment_log(law, k), 50_000, seed=3)
    assert abs(c_k - ref.ck_beta(law, k)) <= 5.0 * se
