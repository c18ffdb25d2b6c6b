"""Reference values computed apart from the program.

Nothing here imports rwre: the benchmark checks the program's outputs
against these values, so they must not share its code.  Laws use the
same text grammar as the program (``beta:A,B`` and
``discrete:w1@p1;w2@p2``), parsed again here.

With rho = (1 - omega) / omega and X = log rho:

* kappa is the root in (0, 1) of log E[rho^t] = 0 (scipy ``brentq``);
* m = E[rho^kappa log rho];
* C_K is the tail constant of R = sum_{k>=0} rho_1 ... rho_k,
  P(R > x) ~ C_K x^-kappa.  For omega ~ Beta(a, b) the closed form is
  Gamma(a) / (Gamma(kappa + 1) Gamma(b)) (Chamayou and Letac 1991:
  1/R ~ Beta(a - b, b)); for any law Goldie's implicit formula gives
  C_K = E[R^kappa - (R - 1)^kappa] / (kappa m), estimated on series drawn
  here;
* Lambda = 2^kappa (pi kappa^2 / sin(pi kappa)) C_K^2 m, the scale of the
  limit Laplace transform exp(-Lambda lambda^kappa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special


@dataclass(frozen=True)
class Law:
    kind: str                      # "beta" | "discrete"
    alpha: float = 0.0
    beta: float = 0.0
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()

    @staticmethod
    def parse(text: str) -> "Law":
        kind, _, body = text.strip().partition(":")
        if kind == "beta":
            a, b = (float(p) for p in body.split(","))
            return Law("beta", alpha=a, beta=b)
        if kind == "discrete":
            atoms = [atom.split("@") for atom in body.split(";") if atom.strip()]
            return Law("discrete", values=tuple(float(w) for w, _ in atoms),
                       probs=tuple(float(p) for _, p in atoms))
        raise ValueError(f"unknown law {text!r}")

    def log_rhos(self) -> np.ndarray:
        w = np.asarray(self.values)
        return np.log((1.0 - w) / w)


def _beta_log_density(law: Law, x: float) -> float:
    """Log density of X = log rho for omega ~ Beta(a, b):
    omega = 1 / (1 + e^x), so p(x) = omega^a (1 - omega)^b / B(a, b)."""
    log_omega = -np.logaddexp(0.0, x)
    return law.alpha * log_omega + law.beta * (x + log_omega) \
        - special.betaln(law.alpha, law.beta)


def _beta_expect(law: Law, t: float, times_x: bool) -> float:
    """E[e^{tX}] (or E[X e^{tX}]) by quadrature of the density of X over
    the real line."""
    def integrand(x: float) -> float:
        value = math.exp(t * x + _beta_log_density(law, x))
        return x * value if times_x else value
    value, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=0.0,
                              epsrel=1e-13, limit=400)
    return value


def moment(law: Law, t: float) -> float:
    """E[rho^t]."""
    if law.kind == "beta":
        return _beta_expect(law, t, times_x=False)
    return float(np.dot(law.probs, np.exp(t * law.log_rhos())))


def kappa(law: Law) -> float:
    """Root in (0, 1) of log E[rho^t] = 0."""
    hi = 1.0 - 1e-9 if law.kind == "discrete" else min(1.0 - 1e-9, law.alpha - 1e-3)
    return optimize.brentq(lambda t: math.log(moment(law, t)), 1e-6, hi,
                           xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)


def moment_log(law: Law, k: float) -> float:
    """m = E[rho^k log rho]."""
    if law.kind == "beta":
        return _beta_expect(law, k, times_x=True)
    lr = law.log_rhos()
    return float(np.dot(law.probs, lr * np.exp(k * lr)))


def ck_beta(law: Law, k: float) -> float:
    """Gamma(a) / (Gamma(k + 1) Gamma(b)), exact for Beta laws."""
    return math.exp(special.gammaln(law.alpha) - special.gammaln(k + 1.0)
                    - special.gammaln(law.beta))


def draw_log_rho(law: Law, rng: np.random.Generator, size: int) -> np.ndarray:
    if law.kind == "beta":
        omega = rng.beta(law.alpha, law.beta, size)
        return np.log1p(-omega) - np.log(omega)
    return rng.choice(law.log_rhos(), size=size, p=law.probs)


def renewal_series(law: Law, count: int, rng: np.random.Generator,
                   rel_tol: float = 1e-17, chunk: int = 64) -> np.ndarray:
    """count draws of R = 1 + rho_1 + rho_1 rho_2 + ..., each summed until
    its next term falls below rel_tol times the partial sum."""
    r = np.ones(count)
    last = np.ones(count)          # current product rho_1 ... rho_k
    active = np.arange(count)
    while active.size:
        steps = draw_log_rho(law, rng, active.size * chunk).reshape(active.size, chunk)
        prods = last[active, None] * np.exp(np.cumsum(steps, axis=1))
        r[active] += prods.sum(axis=1)
        last[active] = prods[:, -1]
        active = active[last[active] > rel_tol * r[active]]
    return r


def ck_goldie(law: Law, k: float, m: float, count: int, seed: int,
              block: int = 10_000) -> tuple[float, float]:
    """(C_K, standard error) from E[R^k - (R - 1)^k] / (k m), drawing the
    series in blocks to keep memory small."""
    rng = np.random.default_rng(seed)
    r = np.concatenate([renewal_series(law, min(block, count - done), rng)
                        for done in range(0, count, block)])
    g = r ** k - (r - 1.0) ** k
    return float(g.mean() / (k * m)), float(g.std(ddof=1) / math.sqrt(count) / (k * m))


def lambda_scale(k: float, c_k: float, m: float) -> float:
    """Lambda = 2^k (pi k^2 / sin(pi k)) C_K^2 m."""
    return 2.0 ** k * (math.pi * k * k / math.sin(math.pi * k)) * c_k * c_k * m


def laplace_limit(lam_scale: float, k: float, lam: float) -> float:
    """exp(-Lambda lambda^k), the limit of E[exp(-lambda tau(n) / n^(1/k))]."""
    return math.exp(-lam_scale * lam ** k)
