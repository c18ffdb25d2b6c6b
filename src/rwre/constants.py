"""The explicit constants of the stable limit law.

The hitting-time law tau(n)/n^{1/kappa} converges to a positive stable
law whose scale is an explicit product of four ingredients:

* kappa, the root of E[rho^t] = 1;
* the log-moment E[rho^kappa log rho];
* the Iglehart constant C_I governing the excursion-height tail
  P{H >= h} ~ C_I e^{-kappa h}, with its companion C_F = C_I / (1 - E[e^{kappa V(e_1)}]);
* the Kesten constant C_K governing the tail of the renewal series
  R = sum_k e^{V(k)}, P{R > x} ~ C_K x^{-kappa}.

E[e_1], C_I and C_F are exact by Spitzer's identity for the ladder
epochs of the walk of log rho (ladder_constants), and the census and the
reduction read them there.  Their Monte Carlo cross-check, which stands
in for them on a law whose exact series refuses, reads C_I off the
first n excursions of one keyed potential path, cut at its weak
descending ladder epochs by potential.excursion_table (the strong Markov
property makes them i.i.d.), with a delta-method standard error that
keeps the covariance between the two excursion functionals.
C_K has a closed form in the Beta case and, for any law, Goldie's
implicit renewal formula (Ann. Appl. Probab. 1991) C_K =
E[R^kappa - (R - 1)^kappa] / (kappa E[rho^kappa log rho]): with
R >= 1 and 0 < kappa < 1 the summand lies in (0, 1], so the estimate is
the mean of a bounded variable.  R solves the perpetuity R = 1 + rho R'
(Kesten, Acta Math. 1973), so its draws come from the Markov chain
R_k = 1 + rho_k R_{k-1}, whose stationary law is the law of R, at one
rho draw a sample.
The combined scale Lambda = 2^kappa (pi kappa^2 / sin(pi kappa)) C_K^2
times the log-moment then feeds every prediction downstream: the Laplace
transform e^{-Lambda lambda^kappa}, the tau prefactor Lambda^{1/kappa},
and the position scale 1/Lambda.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import (
    bdtr,
    bdtrc,
    betaln,
    comb,
    digamma,
    gammaln,
    loggamma,
    logsumexp,
    roots_legendre,
)

from .env import (
    EnvironmentLaw,
    NoRootError,
    RegimeError,
    draw_rho,
    kappa_solve,
    mean_log_rho,
    moment_rho_log,
    rho,
    sample_environment,
    var_log_rho,
)
from .potential import build_potential, excursion_table
from .rng import generator, stream_key

__all__ = [
    "LimitLawParams",
    "TailEstimate",
    "HillEstimate",
    "IglehartEstimate",
    "LadderConstants",
    "sample_excursions",
    "iglehart_constant",
    "feller_from_estimate",
    "ladder_constants",
    "kesten_constant_beta",
    "kesten_tail_estimate",
    "hill_estimate",
    "limit_scale",
    "limit_scale_beta",
]

_CHAIN_LANES = 1024               # independent perpetuity chains
_CHAIN_BLOCK = 64                 # steps drawn per generator call: 1024 x 64 doubles = 512 KB
_HILL_STRIDE = 8                  # steps between the R kept for the Hill index; divides _CHAIN_BLOCK
_BURN_IN_WEIGHT = 1e-12           # bound on the start's weight prod rho_k after the burn-in
_BURN_IN_Z = 6.0                  # standard deviations of log prod rho_k the bound allows for
_GL_NODES = 32                    # Gauss-Legendre nodes a panel of the ladder integrals
_GL_PANELS = 6                    # geometric panels on [1, _GL_END]
_GL_END = 40.0                    # where the ladder integrals stop
_GL_TAIL = 1e-12                  # bound on |phi(_GL_END)|, which sets the tail left out
_GL_TOL = 1e-10                   # n against 2n nodes a panel, on the log of a ladder mean
_SERIES_TAIL = 1e-18              # a ladder series stops at its first term below this
_SERIES_CELLS = 10_000_000        # enumerated counts past which a ladder series refuses
_SERIES_CHUNK = 1 << 16           # enumerated rows a ladder series evaluates at once
_SERIES_WEIGHT = 1e-30            # rows of lesser multinomial weight add no binomial tail
_SNAP = 1e-9                      # a binomial threshold this near an integer is one


@dataclass(frozen=True)
class LimitLawParams:
    kappa: float
    c_k: float
    moment: float                 # E[rho^kappa log rho]
    lambda_scale: float           # the Laplace exponent scale
    tau_prefactor: float          # lambda_scale^(1/kappa)
    x_scale: float                # 1 / lambda_scale


@dataclass(frozen=True)
class TailEstimate:
    constant_hat: float           # Goldie's E[R^kappa - (R - 1)^kappa] / (kappa m)
    index_hat: float              # Hill estimate of the tail index
    stderr: float                 # standard error of constant_hat, from the lane means
    n_series: int                 # R draws averaged: lanes x kept steps


@dataclass(frozen=True)
class HillEstimate:
    index: float
    ci_low: float
    ci_high: float
    k: int


@dataclass(frozen=True)
class IglehartEstimate:
    c_i: float
    stderr: float
    e_kv: float                   # sample mean of e^{kappa V(e_1)}
    e_len: float                  # sample mean of e_1
    cov: np.ndarray               # 2x2 covariance of (e^{kappa V(e_1)}, e_1)
    n_excursions: int


@dataclass(frozen=True)
class LadderConstants:
    e_len: float                  # E[e_1], the mean weak descending ladder epoch
    e_kv: float | None            # E[e^{kappa V(e_1)}] = 1 - 1/E_kappa[tau+]; None without kappa
    c_i: float | None             # Iglehart's constant; None without kappa
    c_f: float | None             # C_I / (1 - E[e^{kappa V(e_1)}]); None without kappa


def sample_excursions(law: EnvironmentLaw, n: int, seed: int,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first n excursions of the potential above its running minimum
    on sites 0, 1, ... of the environment keyed by stream_key(seed,
    "excursions").

    Returns (v_end, length, height) per excursion, between consecutive
    weak descending ladder epochs e_{i-1} < e_i: V(e_i) - V(e_{i-1}) <= 0,
    e_i - e_{i-1}, and the rise max V - V(e_{i-1}) over [e_{i-1}, e_i].
    The first window holds 2n sites; a window short of n excursions grows
    in place by the sites per excursion seen so far, with the potential
    and the excursion table continued bit for bit into the spare room of
    their arrays, as every growing window is, so no excursion is cut.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 excursions, got {n}")
    if mean_log_rho(law) >= 0.0:
        raise RegimeError(f"law {law.spec_text()} has E[log rho] >= 0: its potential "
                          "does not drift down and an excursion need not end")
    key = stream_key(seed, "excursions")
    right = 2 * n
    path = build_potential(sample_environment(law, (1, right), seed=key))
    table = excursion_table(path)
    while table.ends.size < n:
        done = table.ends.size
        per_excursion = right / done if done else 2.0
        grown = right + math.ceil((n - done) * per_excursion * 1.02) + 4096
        piece = sample_environment(law, (right + 1, grown), seed=key)
        path = path.joined(build_potential(piece, prior=path))
        table = excursion_table(path, prior=table)
        right = grown
    starts, ends = table.starts[:n], table.ends[:n]    # the path starts at site 0
    return path.v[ends] - path.v[starts], ends - starts, table.heights[:n]


def iglehart_constant(law: EnvironmentLaw, kappa: float, n_excursions: int = 200_000,
                      seed: int = 0) -> IglehartEstimate:
    """C_I = (1 - E[e^{kappa V(e_1)}])^2 / (kappa E[rho^kappa log rho] E[e_1]),
    with both excursion functionals estimated jointly from one sample and
    the standard error carried through the delta method with their
    covariance.  Needs 2 excursions at least, the fewest with a covariance."""
    if n_excursions < 2:
        raise ValueError(f"need n_excursions >= 2, got {n_excursions}")
    kr = kappa_solve(law)          # validates the regime; raises NoRootError
    if abs(kr.kappa - kappa) > 1e-6:
        raise ValueError(f"kappa={kappa} does not match the law's root {kr.kappa}")
    moment = moment_rho_log(law, kappa)
    v_end, length, _ = sample_excursions(law, n_excursions, seed)
    a = np.exp(kappa * v_end)      # e^{kappa V(e_1)} <= 1
    b = length.astype(np.float64)
    a_mean = float(a.mean())
    b_mean = float(b.mean())
    cov = np.cov(np.vstack([a, b]))
    denom = kappa * moment * b_mean
    c_i = (1.0 - a_mean) ** 2 / denom
    grad = np.array([-2.0 * (1.0 - a_mean) / denom,
                     -((1.0 - a_mean) ** 2) / (denom * b_mean)])
    var = float(grad @ cov @ grad) / n_excursions
    return IglehartEstimate(c_i=c_i, stderr=math.sqrt(max(var, 0.0)),
                            e_kv=a_mean, e_len=b_mean, cov=cov,
                            n_excursions=n_excursions)


def feller_from_estimate(est: IglehartEstimate, kappa: float, moment: float,
                         ) -> tuple[float, float]:
    """(C_F, stderr) by the delta method on the same excursion sample."""
    a, b = est.e_kv, est.e_len
    denom = kappa * moment * b
    c_f = (1.0 - a) / denom
    grad = np.array([-1.0 / denom, -(1.0 - a) / (denom * b)])
    var = float(grad @ est.cov @ grad) / est.n_excursions
    return c_f, math.sqrt(max(var, 0.0))


@functools.lru_cache(maxsize=None)
def ladder_constants(law: EnvironmentLaw) -> LadderConstants:
    """E[e_1], and C_I and C_F when the law has a kappa in (0,1), exactly
    by Spitzer's identity (Spitzer 1956; Feller vol. II, XII.7).

    With S_n the sum of n log rho draws, e_1 = T- = inf{n >= 1: S_n <= 0}
    and tau+ = inf{n >= 1: S_n > 0} under the law tilted by rho^kappa:
    E[T-] = exp sum_n P(S_n > 0)/n, E_kappa[tau+] = exp sum_n
    P_kappa(S_n <= 0)/n, and 1 - E[e^{kappa V(e_1)}] = 1/E_kappa[tau+], so
    C_I = 1/(kappa m E[T-] E_kappa[tau+]^2) and C_F = 1/(kappa m E[T-]
    E_kappa[tau+]) with m = E[rho^kappa log rho].  Beta laws integrate the
    characteristic function (_beta_log_ladder); discrete laws sum the
    series (_discrete_log_ladder).  Cached per law."""
    if mean_log_rho(law) >= 0.0:
        raise RegimeError(f"law {law.spec_text()} has E[log rho] >= 0: its potential "
                          "does not drift down and an excursion need not end")
    log_ladder = _beta_log_ladder if law.kind == "beta" else _discrete_log_ladder
    e_len = math.exp(log_ladder(law, 0.0))
    try:
        kappa = kappa_solve(law).kappa
    except NoRootError:
        return LadderConstants(e_len=e_len, e_kv=None, c_i=None, c_f=None)
    e_up = math.exp(log_ladder(law, kappa))
    c_f = 1.0 / (kappa * moment_rho_log(law, kappa) * e_len * e_up)
    return LadderConstants(e_len=e_len, e_kv=1.0 - 1.0 / e_up, c_i=c_f / e_up, c_f=c_f)


def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of nodes-point Gauss-Legendre rules on [0, 1] and
    on _GL_PANELS geometric panels of [1, _GL_END], as one rule."""
    x, w = roots_legendre(nodes)
    edges = np.concatenate(([0.0], np.geomspace(1.0, _GL_END, _GL_PANELS + 1)))
    half = np.diff(edges)[:, None] / 2.0
    return ((edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel())


def _beta_log_ladder(law: EnvironmentLaw, t: float) -> float:
    """log E[T-] at t = 0, log E_t[tau+] at t = kappa, for omega ~ Beta(A, B).

    Under the law tilted by rho^t, log rho has the characteristic function
    phi(u) = B(A - t - iu, B + t + iu) / B(A - t, B + t) and the mean
    mu = digamma(B + t) - digamma(A - t).  Gil-Pelaez's formula for each
    P(S_n > 0), summed over n, gives with g(u) = arg(1 - phi(u)) and s the
    sign of mu

        log E = -1/2 log|mu| + (s/pi) [int_0^1 (g(u) + s pi/2)/u du
                                      + int_1^inf g(u)/u du]:

    E[T-] = exp sum P(S_n > 0)/n when mu < 0, E[tau+] = exp sum
    P(S_n <= 0)/n when mu > 0; a continuous law makes weak and strict
    ladders alike.  1 - phi = -expm1(log phi) and the shift by s pi/2 is
    a rotation by s i, so the integrand keeps its digits as u -> 0, where g
    tends to -s pi/2; Re log phi, of order u^2 there, still carries an
    absolute rounding near 1e-16, which bounds the result's accuracy near
    1e-11.  |phi(u)| falls like e^{-pi u}, so the integral stops at _GL_END
    once |phi| there is below _GL_TAIL.  Raises FloatingPointError when
    _GL_NODES and 2 _GL_NODES nodes a panel disagree beyond _GL_TOL."""
    a, b = law.alpha - t, law.beta + t
    mu = float(digamma(b) - digamma(a))
    s = 1.0 if mu > 0.0 else -1.0
    log_norm = loggamma(a) + loggamma(b)

    def log_phi(u):
        return loggamma(a - 1j * u) + loggamma(b + 1j * u) - log_norm

    if not abs(np.exp(log_phi(_GL_END))) <= _GL_TAIL:
        raise FloatingPointError(f"law {law.spec_text()}: |phi({_GL_END:g})| above "
                                 f"{_GL_TAIL:g}, the integral's tail is not negligible")
    values = []
    for nodes in (_GL_NODES, 2 * _GL_NODES):
        u, w = _gauss_legendre(nodes)
        one_minus = -np.expm1(log_phi(u))
        g = np.angle(np.where(u < 1.0, s * 1j, 1.0) * one_minus)
        values.append(-0.5 * math.log(abs(mu)) + s / math.pi * float(np.sum(w * g / u)))
    if not abs(values[1] - values[0]) <= _GL_TOL:
        raise FloatingPointError(f"law {law.spec_text()}: the ladder integral moved by "
                                 f"{abs(values[1] - values[0]):.2e} from {_GL_NODES} to "
                                 f"{2 * _GL_NODES} nodes a panel")
    return values[1]


def _count_vectors(k: int, total: int) -> np.ndarray:
    """Every vector of k non-negative counts with sum <= total, as the rows
    of an int32 array sorted by their sum."""
    rows = np.zeros((1, 0), dtype=np.int32)
    for _ in range(k):
        reps = total + 1 - rows.sum(axis=1)
        fresh = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), fresh.astype(np.int32)])
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def _chernoff_terms(y: np.ndarray, p: np.ndarray) -> int:
    """The first n with e^{n f} < _SERIES_TAIL, f = inf_{s >= 0} log E[e^{sY}]
    for Y with atoms y, probabilities p and E[Y] < 0.  By Chernoff's bound
    P(Y_1 + ... + Y_n >= 0) <= e^{n f}, so a ladder series has a term below
    _SERIES_TAIL by then.  f is taken at the s where a bisection on the
    slope of log E[e^{sY}] ends; the bound holds at every s >= 0."""
    def slope(s):
        w = p * np.exp(s * (y - y.max()))
        return float(w @ y) / float(w.sum())

    lo, hi = 0.0, 1.0
    while slope(hi) < 0.0 and hi < 1e6:       # y.max() <= 0 never turns the slope up
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    f = float(logsumexp(np.log(p) + hi * y))
    return max(1, math.ceil(math.log(_SERIES_TAIL) / f))


def _discrete_log_ladder(law: EnvironmentLaw, t: float) -> float:
    """log E[T-] at t = 0, log E_t[tau+] at t = kappa, for a discrete law,
    as _beta_log_ladder but by the series: log sum_n P_t(S_n > 0)/n when
    the tilted mean of log rho is negative, log sum_n P_t(S_n <= 0)/n when
    it is positive.

    The counts of the atoms strictly between the lowest atom L and the
    highest H are enumerated with their multinomial weights; given them,
    the other r draws are L or H, and S_n > 0 exactly when the number j of
    H draws exceeds theta = (-s_mid - r x_L) / (x_H - x_L), with x = log rho
    and s_mid the enumerated atoms' sum.  So each conditional tail is a
    binomial one: bdtrc for P(j > theta), and bdtr for P(j <= theta), whose
    small values 1 - bdtrc would lose; a row of weight below _SERIES_WEIGHT
    adds none.  A theta within _SNAP of an integer is that integer, where
    S_n = 0, which counts as <= 0; an atom at rho = 1 adds exactly 0.

    The series stops at its first term below _SERIES_TAIL, which Chernoff's
    bound places no later than N = _chernoff_terms.  The count vectors with
    sum <= N are enumerated once, the C(n + K, K) with sum <= n first, K
    the number of middle atoms; when the C(N + K + 1, K + 1) rows the N
    terms read hold more than _SERIES_CELLS counts, the series raises
    FloatingPointError before it enumerates any."""
    x = np.log([rho(v) for v in law.values])
    p = np.asarray(law.probs) * np.exp(t * x)
    atoms = np.unique(x)
    p = np.array([p[x == atom].sum() for atom in atoms]) / p.sum()
    up = float(p @ atoms) < 0.0
    if atoms[-1] <= 0.0:                        # S_n <= 0 always: T- = 1
        return 0.0
    x_lo, x_hi, x_mid = atoms[0], atoms[-1], atoms[1:-1]
    k_mid = x_mid.size
    n_max = _chernoff_terms(atoms if up else -atoms, p)
    cells = (comb(n_max + k_mid + 1, k_mid + 1) - 1.0) * max(k_mid, 1)
    if not cells <= _SERIES_CELLS:
        raise FloatingPointError(
            f"law {law.spec_text()}: the ladder series may need {n_max} terms and "
            f"{cells:.3g} enumerated counts, more than {_SERIES_CELLS:g}")
    ns = np.arange(1, n_max + 1)
    per_n = np.rint(comb(ns + k_mid, k_mid)).astype(np.int64)
    counts = _count_vectors(k_mid, n_max)
    log_p_mid, p_ends = np.log(p[1:-1]), p[0] + p[-1]
    q_hi = p[-1] / p_ends
    total, first = 0.0, 0
    while first < n_max:
        last = first + max(1, int(np.searchsorted(np.cumsum(per_n[first:]), _SERIES_CHUNK,
                                                  side="right")))
        batch_n, batch_rows = ns[first:last], per_n[first:last]
        row_n = np.repeat(batch_n, batch_rows)
        row_c = counts[np.arange(row_n.size)
                       - np.repeat(np.cumsum(batch_rows) - batch_rows, batch_rows)]
        r = row_n - row_c.sum(axis=1)
        log_w = (gammaln(row_n + 1.0) - gammaln(r + 1.0) - gammaln(row_c + 1.0).sum(axis=1)
                 + row_c @ log_p_mid + r * math.log(p_ends))
        keep = np.flatnonzero(log_w > math.log(_SERIES_WEIGHT))
        r, log_w = r[keep], log_w[keep]
        theta = (-(row_c[keep] @ x_mid) - r * x_lo) / (x_hi - x_lo)
        near = np.rint(theta)
        k = np.where(np.abs(theta - near) <= _SNAP, near, np.floor(theta))
        if up:
            tail = bdtrc(np.clip(k, -1.0, r), r, q_hi)
        else:
            tail = np.where(k < 0.0, 0.0, bdtr(np.clip(k, 0.0, r), r, q_hi))
        terms = np.bincount(row_n[keep] - batch_n[0], weights=np.exp(log_w) * tail,
                            minlength=batch_n.size) / batch_n
        small = np.flatnonzero(terms < _SERIES_TAIL)
        if small.size:
            return total + float(terms[: small[0]].sum())
        total += float(terms.sum())
        first = last
    return total


def kesten_constant_beta(alpha: float, beta: float) -> float:
    """Closed form of the renewal-series tail constant in the Beta case.

    For omega ~ Beta(alpha, beta), 1/R ~ Beta(kappa, beta) exactly with
    kappa = alpha - beta (Chamayou-Letac), so P{R > x} ~ x^{-kappa} /
    (kappa B(kappa, beta)) and
    C_K = 1 / (kappa B(kappa, beta)) = Gamma(alpha) / (Gamma(kappa + 1) Gamma(beta))."""
    kappa = alpha - beta
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"need 0 < alpha - beta < 1, got {kappa}")
    return 1.0 / (kappa * math.exp(betaln(kappa, beta)))


def _burn_in(law: EnvironmentLaw) -> int:
    """Steps after which the start's weight in R_k = 1 + rho_k R_{k-1},
    prod rho_k, lies below _BURN_IN_WEIGHT.

    log prod rho_k is a random walk with drift mu = E[log rho] < 0 and
    variance s^2 = Var[log rho] a step.  The burn-in b is the least with
    b mu + z s sqrt(b) <= log _BURN_IN_WEIGHT, z = _BURN_IN_Z: the weight
    stays above the bound only if the walk ends z standard deviations above
    its mean, which the central limit theorem puts at Phi(-6) = 1e-9 a lane
    (Hoeffding's inequality bounds it by e^{-18} = 1.5e-8 for a two-atom law
    with equal weights).  The weight matches the 1e-12 relative tolerance
    at which a summed series would stop.
    """
    drift = -mean_log_rho(law)
    if drift <= 0.0:
        raise RegimeError(f"law {law.spec_text()} has E[log rho] >= 0: the series "
                          "R = sum e^{V(k)} diverges")
    spread = _BURN_IN_Z * math.sqrt(var_log_rho(law))
    level = -math.log(_BURN_IN_WEIGHT)
    root = (spread + math.sqrt(spread * spread + 4.0 * drift * level)) / (2.0 * drift)
    return math.ceil(root * root)


def _perpetuity_blocks(law: EnvironmentLaw, rng: np.random.Generator, start: np.ndarray,
                       steps: int):
    """Run R_k = 1 + rho_k R_{k-1} for `steps` steps on independent lanes
    from R_0 = start, yielding the R of each step _CHAIN_BLOCK steps at a
    time as a (steps in the block, lanes) array.  Each block's rho come
    from one draw_rho call, row by row, and are overwritten in place by
    the R they drive; the last row of a block starts the next one."""
    r = start
    for lo in range(0, steps, _CHAIN_BLOCK):
        block = draw_rho(law, rng, min(_CHAIN_BLOCK, steps - lo) * r.size).reshape(-1, r.size)
        for row in block:
            row *= r
            row += 1.0
            r = row
        yield block


def _burned_in(law: EnvironmentLaw, rng: np.random.Generator, start: np.ndarray,
               ) -> np.ndarray:
    """The lanes' R after _burn_in(law) steps of the perpetuity chain from
    R_0 = start."""
    r = start
    for block in _perpetuity_blocks(law, rng, start, _burn_in(law)):
        r = block[-1]
    return r


def _reject_arithmetic(law: EnvironmentLaw) -> None:
    """Kesten's x^kappa P{R > x} -> C_K needs a non-arithmetic log rho.  A
    discrete law whose nonzero log-rho atoms are all rational multiples of
    one span (denominator at most 64, to 1e-12 relative) lives on a
    lattice, where that product oscillates and no C_K exists."""
    if law.kind != "discrete":
        return
    logs = [x for x in (math.log((1.0 - w) / w) for w in law.values) if x != 0.0]
    ratios = [x / logs[0] for x in logs[1:]]
    if all(abs(float(Fraction(r).limit_denominator(64)) - r) <= 1e-12 * abs(r)
           for r in ratios):
        raise ValueError(f"law {law.spec_text()} is arithmetic (its log rho atoms lie on "
                         "one lattice), so x^kappa P{R > x} oscillates and has no "
                         "tail constant C_K")


def kesten_tail_estimate(law: EnvironmentLaw, kappa: float, n_series: int = 3_000_000,
                         seed: int = 0) -> TailEstimate:
    """Estimate the tail constant of R = sum e^{V(k)} by Goldie's identity
    C_K = E[R^kappa - (R - 1)^kappa] / (kappa m), m = E[rho^kappa log rho].

    R's draws come from the perpetuity chain R_k = 1 + rho_k R_{k-1} on
    min(_CHAIN_LANES, n_series) independent lanes.  Each lane starts at
    R = 1, runs _burn_in(law) steps, then averages Goldie's summand
    -R^kappa expm1(kappa log1p(-1/R)), which lies in (0, 1] for
    0 < kappa < 1 and keeps its digits when R is large, over
    ceil(n_series / lanes) kept steps.  The lane means are independent, so
    their spread gives the standard error with no model of the chain's
    autocorrelation.  The Hill estimator over the top max(200, m^0.6) of
    the m values of R recorded every _HILL_STRIDE kept steps reads off the
    index.

    Memory: 8 bytes a lane for each R recorded for the Hill index, one in
    _HILL_STRIDE kept steps (3 MB at the default size), plus about 2 MB of
    _CHAIN_BLOCK-step blocks and summands, whatever n_series.

    Raises ValueError for an arithmetic discrete law, which has no C_K,
    and for n_series below 10, too few draws for the Hill index.
    """
    if n_series < 10:
        raise ValueError(f"need n_series >= 10 for a tail estimate, got {n_series}")
    _reject_arithmetic(law)
    scale = kappa * moment_rho_log(law, kappa)
    rng = generator(stream_key(seed, "kesten"))
    lanes = min(_CHAIN_LANES, n_series)
    steps = -(-n_series // lanes)
    r = _burned_in(law, rng, np.ones(lanes))
    totals = np.zeros(lanes)
    recorded = np.empty((-(-steps // _HILL_STRIDE), lanes))
    for i, block in enumerate(_perpetuity_blocks(law, rng, r, steps)):
        # every block but the last holds _CHAIN_BLOCK steps, a multiple of the stride
        lo = i * (_CHAIN_BLOCK // _HILL_STRIDE)
        kept = block[::_HILL_STRIDE]
        recorded[lo : lo + kept.shape[0]] = kept
        g = np.log1p(-1.0 / block)
        g *= kappa
        np.expm1(g, out=g)
        g *= block ** kappa
        totals -= g.sum(axis=0)

    means = totals / steps
    index_hat = hill_estimate(recorded.ravel(), k=max(200, int(recorded.size ** 0.6))).index
    return TailEstimate(constant_hat=float(means.mean()) / scale, index_hat=index_hat,
                        stderr=float(means.std(ddof=1)) / math.sqrt(lanes) / scale,
                        n_series=lanes * steps)


def hill_estimate(sample: np.ndarray, k: int | None = None) -> HillEstimate:
    """Hill tail-index estimate over the k largest points, k = floor(m^0.6)
    by default; only the top k + 1 are selected and sorted."""
    x = np.asarray(sample, dtype=np.float64)
    m = x.size
    if m < 10:
        raise ValueError(f"need at least 10 points for a tail estimate, got {m}")
    if k is None:
        k = int(m ** 0.6)
    k = max(5, min(k, m - 1))
    top = np.sort(np.partition(x, m - k - 1)[m - k - 1:])[::-1]
    gamma = float(np.mean(np.log(top[:k]) - np.log(top[k])))
    index = 1.0 / gamma if gamma > 0 else math.inf
    se = index / math.sqrt(k)
    return HillEstimate(index=index, ci_low=index - 1.96 * se,
                        ci_high=index + 1.96 * se, k=k)


def limit_scale(kappa: float, c_k: float, moment: float) -> LimitLawParams:
    """Assemble the limit-law scale from its ingredients:
    Lambda = 2^kappa (pi kappa^2 / sin(pi kappa)) C_K^2 moment."""
    if not 0.0 < kappa < 1.0:
        raise RegimeError(f"kappa must lie in (0,1), got {kappa}")
    lam = (2.0 ** kappa) * (math.pi * kappa ** 2 / math.sin(math.pi * kappa)) \
        * (c_k ** 2) * moment
    return LimitLawParams(kappa=kappa, c_k=c_k, moment=moment,
                          lambda_scale=lam,
                          tau_prefactor=lam ** (1.0 / kappa),
                          x_scale=1.0 / lam)


def limit_scale_beta(alpha: float, beta: float) -> float:
    """The same scale through the Beta-case closed form, with
    kappa C_K = 1 / B(kappa, beta) and E[rho^kappa log rho] = digamma(alpha) - digamma(beta):
    2^kappa (pi / sin(pi kappa)) (digamma(alpha) - digamma(beta)) / B(kappa, beta)^2."""
    kappa = alpha - beta
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"need 0 < alpha - beta < 1, got {kappa}")
    return (2.0 ** kappa) * (math.pi / math.sin(math.pi * kappa)) \
        * float(digamma(alpha) - digamma(beta)) \
        / math.exp(2.0 * betaln(kappa, beta))
