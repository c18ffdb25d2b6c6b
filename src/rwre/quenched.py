"""Quenched hitting-time analysis on a finite stretch of environment.

Everything here conditions on one realized environment.  The central
object is a QuenchedChain: omegas on a site interval [left, right], an
optional reflecting site, and the restriction of the potential.  On top
of it:

* exit and failure probabilities through the classical e^V sums;
* the two Doob transforms of an excursion attempt from b (conditioned to
  fail back to b before reaching d, or to succeed), with the transformed
  potentials and their gap arrays;
* closed-form conditional moments of the failure time F and a computable
  upper bound for the success time G;
* E_0 tau(r) reflected at 0, for every target r, off the potential;
* a banded linear solve (absorption probabilities, expected times,
  Laplace transforms) for the reduction check and the cross-checks;
* hitting-time sampling through the branching representation of tau(n),
  which is exact in distribution and turns one hitting time into O(n)
  negative binomial draws instead of O(tau) coin flips.

All probability-weighted sums run in the log domain via logaddexp, so a
valley of depth 700 is as safe as one of depth 7.  The transformed
potentials are represented through their gap to the base potential;
the gaps are monotone by construction (accumulated logaddexp cannot
decrease, and IEEE rounding preserves order under a constant shift), so
the comparison inequalities between transformed and base increments hold
exactly in floating point, not just up to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import logsumexp

from .env import EnvironmentSlice
from .potential import WindowExhausted
from .rng import generator, stream_key

__all__ = [
    "QuenchedChain",
    "HTransform",
    "AttemptMoments",
    "exit_prob",
    "failure_prob",
    "h_transform",
    "attempt_moments",
    "mean_G_exact",
    "expected_hitting_times",
    "linear_solve_oracle",
    "sample_hitting_times",
]

_RECURRENCE_CHUNK = 256  # terms between restarts of _log_linear_recurrence's prefix sum
_HARMONIC_ROUNDINGS = 16   # harmonicity bound in units of eps (1 + M); see _check_harmonic
_LAM_CAP = 5e18       # cascade intensities (Poisson means, geometric values) saturate here


@dataclass(frozen=True)
class QuenchedChain:
    """Omegas on the interior (left, right), potential on [left, right].

    The value V(right) needs omega at the right edge, which is why
    from_omegas takes omegas up to and including the right endpoint; the
    edge omega enters nothing but that last potential increment.  A
    reflecting site (omega forced to 1) is stored as a field and applied
    inside computations; the stored interior omegas stay in (0, 1).
    """

    left: int
    right: int
    omegas: np.ndarray            # sites left+1 .. right-1
    base_potential: np.ndarray    # V on sites left .. right
    reflect_at: int | None = None

    def __post_init__(self):
        width = self.right - self.left
        if width < 1:
            raise ValueError("chain needs right > left")
        if len(self.omegas) != width - 1:
            raise ValueError(f"expected {width - 1} interior omegas, got {len(self.omegas)}")
        if len(self.base_potential) != width + 1:
            raise ValueError(f"expected {width + 1} potential values, got {len(self.base_potential)}")
        if np.any(self.omegas <= 0.0) or np.any(self.omegas >= 1.0):
            raise ValueError("interior omegas must lie strictly in (0, 1)")
        if self.reflect_at is not None and not self.left <= self.reflect_at < self.right:
            raise ValueError("reflect_at must lie in [left, right)")

    @classmethod
    def from_omegas(cls, omegas, left: int = 0,
                    reflect_at: int | None = None) -> "QuenchedChain":
        """Build from omegas on sites left+1 .. left+len(omegas), with V(left)
        = 0.  The last omega is the right edge and only feeds V(right)."""
        om = np.asarray(omegas, dtype=np.float64)
        if om.size < 1:
            raise ValueError("need at least one omega")
        right = left + om.size
        log_rho = np.log1p(-om) - np.log(om)
        v = np.concatenate([[0.0], np.cumsum(log_rho)])
        return cls(left=left, right=right, omegas=om[:-1], base_potential=v,
                   reflect_at=reflect_at)

    @classmethod
    def from_environment(cls, env: EnvironmentSlice, left: int, right: int,
                         reflect_at: int | None = None) -> "QuenchedChain":
        """Chain on [left, right] over omegas left+1 .. right of the slice;
        IndexError when the slice does not cover them."""
        om = env.omegas[env.index(left + 1) : env.index(right) + 1]
        return cls.from_omegas(om, left=left, reflect_at=reflect_at)

    def omega(self, x: int) -> float:
        if self.reflect_at is not None and x == self.reflect_at:
            return 1.0
        if not self.left < x < self.right:
            raise IndexError(f"site {x} not interior to [{self.left}, {self.right}]")
        return float(self.omegas[x - self.left - 1])

    def v(self, x: int) -> float:
        if not self.left <= x <= self.right:
            raise IndexError(f"site {x} outside [{self.left}, {self.right}]")
        return float(self.base_potential[x - self.left])

    def _vslice(self, lo: int, hi: int) -> np.ndarray:
        """Potential over the inclusive site range [lo, hi]."""
        return self.base_potential[lo - self.left : hi - self.left + 1]

    def _wslice(self, lo: int, hi: int) -> np.ndarray:
        """omega over the inclusive site range [lo, hi] (interior sites, or
        the reflecting left end), with the reflecting site at 1."""
        w = np.ones(max(hi - lo + 1, 0))
        first = max(lo, self.left + 1)
        w[first - lo:] = self.omegas[first - self.left - 1 : hi - self.left]
        if self.reflect_at is not None and lo <= self.reflect_at <= hi:
            w[self.reflect_at - lo] = 1.0
        return w


@dataclass(frozen=True)
class HTransform:
    """A conditioned chain on [b, d].

    kind "failure": conditioned to return to b before reaching d; the
    scale function is h(x) = P^x{hit b before d} with h(b) = 1, h(d) = 0,
    log_scale holds log h on [b, d].

    kind "success": conditioned to reach d before returning to b; the
    scale function is g = 1 - h with g(b) = 0, g(d) = 1, and log_scale
    holds log g on [b, d+1] with the harmless extension g(d+1) := 1 that
    makes the transformed potential well defined up to site d.

    v_hat is the transformed potential on [b, d] and gap = v_hat minus the
    base potential.  The failure gap is nondecreasing and the success gap
    is nonincreasing, exactly, by construction; v_hat[b] is +inf for the
    success kind (the conditioned walk never revisits b) and v_hat at
    d-1 and d is +inf for the failure kind (it never reaches d).
    """

    kind: str
    b: int
    d: int
    omegas_hat: np.ndarray        # sites b+1 .. d-1
    v_hat: np.ndarray             # sites b .. d
    gap: np.ndarray               # v_hat - base potential, sites b .. d
    log_scale: np.ndarray         # log h on [b, d], or log g on [b, d+1]

    def omega(self, x: int) -> float:
        if not self.b < x < self.d:
            raise IndexError(f"site {x} not interior to [{self.b}, {self.d}]")
        return float(self.omegas_hat[x - self.b - 1])

    def potential(self, x: int) -> float:
        if not self.b <= x <= self.d:
            raise IndexError(f"site {x} outside [{self.b}, {self.d}]")
        return float(self.v_hat[x - self.b])


@dataclass(frozen=True)
class AttemptMoments:
    """Moments of one excursion attempt from b, reflected at a, walled at d.

    p_fail is the chance the attempt returns to b before reaching d;
    mean_F and second_F are E[F] and E[F^2] for the failure time F
    (conditioned on failing); mean_G_bound upper-bounds the conditional
    mean of the success time.  m1_hat and m2 are the two potential sums
    that control the attempt count and the depth factor.
    """

    p_fail: float
    mean_F: float
    second_F: float
    mean_G_bound: float
    m1_hat: float
    m2: float


def _log_suffix_sumexp(a: np.ndarray) -> np.ndarray:
    """out[k] = log sum_{j>=k} e^{a[j]}."""
    return np.logaddexp.accumulate(a[::-1])[::-1]


def _log_linear_recurrence(first: float, log_add: np.ndarray,
                           log_mult: np.ndarray) -> np.ndarray:
    """x[0] = first, x[k] = logaddexp(log_add[k-1], log_mult[k-1] + x[k-1]).

    This is the log of X[k] = A[k-1] + M[k-1] X[k-1], whose solution is
    X[k] = P[k] (X[0] + sum_{j<=k} A[j-1] / P[j]) with P the prefix
    products of M; in logs, a prefix sum and one accumulated logaddexp.
    The prefix restarts every _RECURRENCE_CHUNK terms: log P grows with
    the length, and each term carries a rounding error of eps |log P|."""
    x = np.empty(len(log_add) + 1)
    x[0] = first
    for s in range(0, len(log_add), _RECURRENCE_CHUNK):
        shift = np.cumsum(log_mult[s : s + _RECURRENCE_CHUNK])
        x[s + 1 : s + 1 + len(shift)] = shift + np.logaddexp.accumulate(
            np.concatenate(([x[s]], log_add[s : s + len(shift)] - shift)))[1:]
    return x


def expected_hitting_times(v: np.ndarray) -> np.ndarray:
    """E_0 tau(r) = r + 2 sum_{0<=j<i<r} e^{V(i) - V(j)} (Solomon 1975),
    reflected at 0, for r = 0 .. R, off v[k] = V(k) on 0 .. R: edge by edge,
    m_i = E_i tau(i+1) = 1/omega_i + rho_i m_{i-1}, m_0 = 1, all positive."""
    log_rho = np.diff(v[:-1])                   # sites 1 .. R-1
    log_m = _log_linear_recurrence(0.0, np.logaddexp(0.0, log_rho), log_rho)
    return np.concatenate(([0.0], np.cumsum(np.exp(log_m[: len(v) - 1]))))


def exit_prob(chain: QuenchedChain, x: int, l: int, r: int) -> float:
    """P^x{hit r before l} = sum_{k=l}^{x-1} e^{V(k)} / sum_{k=l}^{r-1} e^{V(k)}."""
    if not (chain.left <= l <= x <= r <= chain.right):
        raise ValueError(f"need left <= l <= x <= r <= right, got l={l}, x={x}, r={r}")
    if l == r:
        raise ValueError("degenerate interval")
    if x == l:
        return 0.0
    num = logsumexp(chain._vslice(l, x - 1))
    den = logsumexp(chain._vslice(l, r - 1))
    return float(math.exp(num - den))


def failure_prob(chain: QuenchedChain, b: int, d: int) -> tuple[float, float]:
    """(p, 1-p) for one attempt from b against the wall at d:
    1 - p = omega_b e^{V(b)} / sum_{x=b}^{d-1} e^{V(x)}."""
    if not (chain.left < b < d <= chain.right):
        raise ValueError(f"need left < b < d <= right, got b={b}, d={d}")
    log_success = (math.log(chain.omega(b)) + chain.v(b)
                   - logsumexp(chain._vslice(b, d - 1)))
    one_minus_p = math.exp(log_success)
    p = -math.expm1(log_success)
    return p, one_minus_p


def _check_harmonic(omegas: np.ndarray, log_scale: np.ndarray, v: np.ndarray,
                    what: str) -> None:
    """Relative residual of scale(x) = w scale(x+1) + (1-w) scale(x-1),
    against a bound set by the rounding of the log-domain accumulation.

    log_scale is a running logaddexp over e^{V} on the potential v,
    shifted by its total.  Each of its entries, and each V it was built
    from, is a value of magnitude up to M = max|v| + log(len(v)) rounded
    to half an ulp, eps M / 2.  The residual is 1 minus w e^{d_up} +
    (1-w) e^{d_dn}, two terms that sum to 1 in exact arithmetic, so it is
    about as large as the worst error of the differences d_up and d_dn.
    Each difference carries the roundings of the potential increment, the
    logaddexp step and the shift by the total at both of its ends, and of
    the subtraction itself: about eight half-ulps, 4 eps M, plus a few ulp
    of 1 from exp and the products.  The bound is _HARMONIC_ROUNDINGS
    eps (1 + M), four times that.  A chain drifts to |V| of order its
    width, so the bound grows with the width; a flat tolerance flags
    correct long chains."""
    if omegas.size == 0:
        return
    d_up = log_scale[2:] - log_scale[1:-1]
    d_dn = log_scale[:-2] - log_scale[1:-1]
    resid = np.abs(1.0 - omegas * np.exp(d_up) - (1.0 - omegas) * np.exp(d_dn))
    worst = float(np.max(resid))
    magnitude = float(np.max(np.abs(v))) + math.log(len(v))
    tol = _HARMONIC_ROUNDINGS * np.finfo(np.float64).eps * (1.0 + magnitude)
    if not worst <= tol:
        raise FloatingPointError(
            f"{what} scale function fails harmonicity: residual {worst:.3e} "
            f"> {tol:.3e}")


def h_transform(chain: QuenchedChain, b: int, d: int, kind: str) -> HTransform:
    """Doob transform of the attempt from b on [b, d]; see HTransform."""
    if not (chain.left <= b < d <= chain.right):
        raise ValueError(f"need left <= b < d <= right, got b={b}, d={d}")
    if kind not in ("failure", "success"):
        raise ValueError(f"kind must be 'failure' or 'success', got {kind!r}")
    v = chain._vslice(b, d)                     # V(b) .. V(d)
    interior = chain._wslice(b + 1, d - 1)
    width = d - b

    if kind == "failure":
        # h(x) = suffix / total of e^{V(k)}, k in [b, d-1]
        log_suffix = _log_suffix_sumexp(v[:-1])  # over x = b .. d-1
        log_h = np.empty(width + 1)
        log_h[:-1] = log_suffix - log_suffix[0]
        log_h[-1] = -math.inf
        with np.errstate(divide="ignore"):
            log_w = np.log(interior) + log_h[2:] - log_h[1:-1]
        omegas_hat = np.exp(log_w)
        _check_harmonic(interior, log_h, v[:-1], "failure")
        # gap(x) = log h(b+1) - log h(x) - log h(x+1); nondecreasing
        gap = np.empty(width + 1)
        with np.errstate(invalid="ignore"):
            gap[:-1] = log_h[1] - log_h[:-1] - log_h[1:]
        gap[0] = 0.0                             # exact anchor, V-hat(b) = V(b)
        gap[-1] = math.inf
        v_hat = v + gap
        return HTransform(kind=kind, b=b, d=d, omegas_hat=omegas_hat,
                          v_hat=v_hat, gap=gap, log_scale=log_h)

    # success: g(x) = prefix / total of e^{V(k)}, k in [b, d-1]
    log_prefix = np.logaddexp.accumulate(v[:-1])  # position j holds x = b+1+j
    log_g = np.empty(width + 2)                  # sites b .. d+1
    log_g[0] = -math.inf
    log_g[1:-1] = log_prefix - log_prefix[-1]    # log g(d) = 0 exactly
    log_g[-1] = 0.0                              # extension g(d+1) := 1
    with np.errstate(divide="ignore"):
        log_w = np.log(interior) + log_g[2:-1] - log_g[1:-2]
    omegas_bar = np.exp(log_w)
    if omegas_bar.size:
        omegas_bar[0] = 1.0                      # exact: omega (1 + rho) = 1
    _check_harmonic(interior, log_g[:-1], v[:-1], "success")
    # gap(x) = log g(b+1) + log g(b+2) - log g(x) - log g(x+1); nonincreasing
    gap = np.empty(width + 1)
    gap[0] = math.inf                            # conditioned walk never at b
    anchor = log_g[1] + log_g[2] if width >= 2 else log_g[1] + log_g[1]
    gap[1:] = anchor - log_g[1:-1] - log_g[2:]
    v_hat = v + gap
    return HTransform(kind=kind, b=b, d=d, omegas_hat=omegas_bar,
                      v_hat=v_hat, gap=gap, log_scale=log_g)


def attempt_moments(chain: QuenchedChain, a: int, b: int, d: int) -> AttemptMoments:
    """Exact conditional attempt moments; needs reflection at a."""
    if not (chain.left <= a < b < d <= chain.right):
        raise ValueError(f"need left <= a < b < d <= right, got a={a}, b={b}, d={d}")
    if chain.reflect_at != a:
        raise ValueError(f"attempt decomposition needs reflect_at == a == {a}, "
                         f"chain has {chain.reflect_at}")
    omega_b = chain.omega(b)
    log_wb = math.log(omega_b)
    log_1mwb = math.log1p(-omega_b)

    ht = h_transform(chain, b, d, "failure")
    log_h = ht.log_scale
    v_hat = ht.v_hat                            # V-hat on [b, d]
    log_u = float(log_h[1])                     # log h(b+1); -inf when d = b+1
    u = math.exp(log_u)
    p_fail = (1.0 - omega_b) + omega_b * u
    log_p_fail = math.log(p_fail)

    # left of b, reflected at a: first and second moment sums
    lm1L = chain.v(b - 1) - chain._vslice(a, b - 1)       # i = a .. b-1
    log_S1L = logsumexp(lm1L)
    w_left = chain._wslice(a + 1, b - 1)
    log_rho_left = np.log1p(-w_left) - np.log(w_left)
    m = b - a                                   # sites a .. b-1
    # runs from i = b-1 (where it is 0) down to a; i = a + k uses rho_{i+1}
    lr = log_rho_left[::-1]
    lm2L = _log_linear_recurrence(
        0.0, lr + np.logaddexp(0.0, lr) + lm1L[:0:-1], 2.0 * lr)[::-1]
    # C_j = sum_{i=a}^{j-1} e^{V(j) - V(i)}
    neg_v = -chain._vslice(a, b - 1)
    log_C = np.full(m, -math.inf)
    if m > 1:
        log_C[1:] = chain._vslice(a + 1, b - 1) + np.logaddexp.accumulate(neg_v[:-1])
    log_S2L = logsumexp(lm2L + np.logaddexp(0.0, math.log(2.0) + log_C))

    # right of b, under the failure transform
    if d > b + 1:
        # m1R_i = e^{-(V-hat(i-1) - V(b))} for i = b+1 .. d-1
        w = v_hat[: d - 1 - b]                  # V-hat on [b, d-2]
        lm1R = -(w - chain.v(b))
        log_S1R = logsumexp(lm1R)
        with np.errstate(divide="ignore"):
            log_omega_hat = np.log(ht.omegas_hat)           # sites b+1 .. d-1
        w_hat = chain._wslice(b + 1, d - 2)
        log_rho_hat = (np.log1p(-w_hat) - np.log(w_hat)
                       + log_h[: d - b - 2] - log_h[2 : d - b])  # finite for i <= d-2
        r = d - 1 - b                           # sites b+1 .. d-1
        # site i = b+1+k uses the hats at i-1
        lo_w, lo_r = log_omega_hat[: r - 1], log_rho_hat[: r - 1]
        lm2R = _log_linear_recurrence(0.0, lm1R[: r - 1] - lo_w - 2.0 * lo_r,
                                      -2.0 * lo_r)
        # D_i = sum_{j=i+1}^{d-1} e^{-(V-hat(j-1) - V-hat(i-1))}
        log_D = np.full(r, -math.inf)
        if r > 1:
            suffix = _log_suffix_sumexp(-w[1:])
            log_D[:-1] = w[:-1] + suffix
        log_S2R = logsumexp(lm2R + np.logaddexp(0.0, math.log(2.0) + log_D))
        right_first = log_wb + log_u + log_S1R
        right_second = log_wb + log_u + log_S2R
    else:
        right_first = -math.inf
        right_second = -math.inf

    mean_F = math.exp(math.log(2.0)
                      + np.logaddexp(log_1mwb + log_S1L, right_first) - log_p_fail)
    second_F = math.exp(math.log(4.0)
                        + np.logaddexp(log_1mwb + log_S2L, right_second) - log_p_fail)

    # success-side bound: 1 + 2 sum_{b+1 <= i <= j <= d} e^{V-bar(j) - V-bar(i)}.
    # The factor 2 makes this a true pathwise bound: expanding the exact
    # transit time gives each off-diagonal pair twice (once through 1/w
    # and once through rho/w at the lower site), so the ordered-pair sum
    # alone can fall short of the exact mean by up to that factor.
    hs = h_transform(chain, b, d, "success")
    v_bar = hs.v_hat[1:]                        # finite on [b+1, d]
    log_L = _log_suffix_sumexp(v_bar)
    mean_G_bound = 1.0 + 2.0 * math.exp(logsumexp(log_L - v_bar))

    # potential sums: attempt count and depth factors
    left_part = chain.v(b) - chain._vslice(a + 1, b - 1) if b > a + 1 else np.array([])
    right_part = -(v_hat[: d - b] - chain.v(b))           # x = b .. d-1
    m1_hat = math.exp(logsumexp(np.concatenate([left_part, right_part])))
    v_bd = chain._vslice(b, d - 1)
    m2 = math.exp(logsumexp(v_bd - np.max(v_bd)))        # = sum e^{V(x) - V(c)}
    return AttemptMoments(p_fail=p_fail, mean_F=mean_F, second_F=second_F,
                          mean_G_bound=mean_G_bound, m1_hat=m1_hat, m2=m2)


def mean_G_exact(chain: QuenchedChain, b: int, d: int) -> float:
    """Exact conditional mean of the success time G.

    Conditioned on reaching d before returning to b, the attempt walks
    the success-transformed chain: one forced step to b+1, then the
    omega-bar dynamics, which never revisit b, so they act as reflected
    at b+1.  The transit time from b+1 to d is E tau(d - b - 1) of
    expected_hitting_times on the transformed potential from b+1.
    """
    if not (chain.left <= b < d <= chain.right):
        raise ValueError(f"need left <= b < d <= right, got b={b}, d={d}")
    v_hat = h_transform(chain, b, d, "success").v_hat[1:]    # sites b+1 .. d
    return 1.0 + float(expected_hitting_times(v_hat)[d - b - 1])


def linear_solve_oracle(chain: QuenchedChain, functional: str,
                        target: int | None = None, lam: float = 0.0) -> np.ndarray:
    """Dense-solve ground truth for quenched functionals.

    Solves the harmonic system on [left, right] with the chain's
    reflection applied and both endpoints absorbing (a reflecting left
    end replaces absorption there).  Returns the value at every site of
    [left, right].  The banded solve's rounding grows with the chain: on
    reflected Beta(1.5, 1) chains of 2200 sites its hit probabilities sit
    up to 2e-5 from the exact 1, above or below.  laplace_hit is clipped
    into [0, 1], the functional's range; that removes only the excess
    above 1, not the error below it.

    functional:
      "expected_time":  E^x[steps to absorption]
      "laplace_hit":    E^x[e^{-lam tau(target)}; absorbed at target]
                        (target = left or right; lam = 0 gives the hit
                        probability P^x{absorbed at target})
    """
    L, R = chain.left, chain.right
    reflect = chain.reflect_at
    if functional not in ("expected_time", "laplace_hit"):
        raise ValueError(f"unknown functional {functional!r}")
    if functional == "laplace_hit" and target not in (L, R):
        raise ValueError("target must be an endpoint")
    # unknown sites: interior, plus the left end if it reflects
    x0 = L if reflect == L else L + 1
    x1 = R - 1
    n = x1 - x0 + 1
    if n <= 0:
        out = np.zeros(R - L + 1)
        if functional == "laplace_hit":
            out[target - L] = 1.0
        return out
    w = chain._wslice(x0, x1)
    scale = math.exp(lam) if functional == "laplace_hit" else 1.0

    ab = np.zeros((3, n))
    ab[1, :] = scale
    ab[0, 1:] = -w[:-1]               # superdiagonal: coupling to x+1
    ab[2, :-1] = -(1.0 - w[1:])       # subdiagonal: coupling to x-1

    out = np.zeros(R - L + 1)
    if functional == "expected_time":
        out[x0 - L : x1 - L + 1] = solve_banded((1, 1), ab, np.ones(n))
        return out
    rhs = np.zeros(n)
    if x0 == L + 1:
        rhs[0] += (1.0 - w[0]) * float(target == L)
    rhs[-1] += w[-1] * float(target == R)
    out[x0 - L : x1 - L + 1] = np.clip(solve_banded((1, 1), ab, rhs), 0.0, 1.0)
    out[target - L] = 1.0             # absorbed at once: 1 at target, 0 at the other end
    return out


class _SiteDraw(NamedTuple):
    """How the branching cascade draws one site's crossing counts from
    their shapes: intensity(i, shape, out) draws one continuous value per
    lane into out and returns it, the cascade caps it at _LAM_CAP, and
    count turns the capped values into whole-number counts, int64 or
    float64, possibly in place."""
    intensity: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    count: Callable[[np.ndarray], np.ndarray]


def _gamma_poisson(rho_at, rng: np.random.Generator) -> _SiteDraw:
    """Negative binomial counts as Poisson(Gamma(shape) rho_at(i, size)),
    for any environment.  rho_at(i, size) is a scalar in a fixed
    environment or a vector of size fresh values, one environment per
    lane; it is called before the site's gamma draw.  A gamma or Poisson
    draw of shape 0 consumes no bits, so in a fixed environment the
    cascade's live-lane scan below start draws what scanning every lane
    would."""
    def intensity(i: int, shape: np.ndarray, out: np.ndarray) -> np.ndarray:
        rho = rho_at(i, shape.size)
        rng.standard_gamma(shape, out=out)
        out *= rho
        return out
    return _SiteDraw(intensity, rng.poisson)


def _beta_geometric(alpha: float, rng: np.random.Generator) -> _SiteDraw:
    """Annealed counts for omega ~ Beta(alpha, 1), fresh at every site and
    lane, as one geometric variable a lane.

    Given its shape r, a count has the beta-negative-binomial law
    BNB(r, alpha, 1), which is symmetric in its first and third
    parameters: it is BNB(1, alpha, r), a Geometric(p) count of failures
    with p ~ Beta(alpha, r).  With p = G_a / (G_a + G_r), for Gamma(alpha)
    and Gamma(r) draws G_a and G_r, and E standard exponential, the count
    is floor(E / -log(1 - p)) = floor(E / log1p(G_a / G_r)), truncated in
    place as a float64.  The law is exact; it differs from the
    Gamma-Poisson draw over draw_rho only where that clips omega into
    _OMEGA_CLIP, an event of probability about 1e-16.  A log1p of 0 gives
    an infinite intensity, as does E / log1p(...) past the float range;
    the cap clips and counts both, and their division by 0 and overflow
    warn unless the caller ignores them, as the cascade does.
    """
    def intensity(_i: int, shape: np.ndarray, out: np.ndarray) -> np.ndarray:
        rng.standard_gamma(alpha, out=out)
        scratch = rng.standard_gamma(shape)
        out /= scratch
        np.log1p(out, out=out)
        return np.divide(rng.standard_exponential(out=scratch), out, out=out)
    return _SiteDraw(intensity, lambda x: np.trunc(x, out=x))


def _site_counts(draw: _SiteDraw, i: int, shape: np.ndarray, clipped: np.ndarray,
                 lanes, out: np.ndarray) -> np.ndarray:
    """Crossing counts at site i, drawn through the buffer out: the draw's
    intensity, capped at _LAM_CAP, with the lanes past the cap marked in
    clipped[lanes]."""
    lam = draw.intensity(i, shape, out)
    if lam.max(initial=0.0) > _LAM_CAP:         # rare: clip and count
        clipped[lanes] |= lam > _LAM_CAP
        np.minimum(lam, _LAM_CAP, out=lam)
    return draw.count(lam)


def _branching_cascade(draw: _SiteDraw, count: int, start: int, targets,
                       floor: int | None = None,
                       tail: Callable[[int], _SiteDraw] | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """count draws of tau(start -> n) = (n - start) + 2 sum_i U_i for each
    n in targets, U_i the left crossings of the edge (i, i+1).

    Scanning right to left, U_i given U_{i+1} is negative binomial: the
    failures before U_{i+1} + 1 successes at rate omega_i for sites >=
    start, before U_{i+1} successes below start.  draw turns those shapes
    into counts: _gamma_poisson in any environment, _beta_geometric
    annealed over Beta(alpha, 1).

    One chain runs down from max(targets) to start, every lane drawn at
    every site.  Row n takes its running total, its U and its clipped
    flags after n - start steps, so rows share that chain; which n are in
    targets changes no row.  Each row then runs its own tail below start,
    drawn by tail(n) (draw when tail is None) on the lanes with U_{i+1} >
    0, until none is left, but visiting no site below min(floor, start).
    A row n < max(targets) reads sites max(targets) - 1 .. max(targets) -
    n + start above start, not n - 1 .. start: several targets are exact
    only for a draw that ignores the site index, which the annealed
    draws do.  Returns (tau, clipped), one row per target in order:
    clipped marks the replicas whose intensity passed _LAM_CAP or that
    were alive below floor.  Division by 0 and overflow are ignored
    throughout: they make the infinite intensities _beta_geometric may
    draw, which the cap clips and counts.
    """
    row_at = {n - start: row for row, n in enumerate(targets)}   # step -> row
    u = np.zeros(count)
    total = np.zeros(count)                     # a sum of counts can pass int64's range
    clipped = np.zeros(count, dtype=bool)
    totals = np.empty((len(targets), count))
    clips = np.empty((len(targets), count), dtype=bool)
    heads = [None] * len(targets)
    shape, buf = np.empty(count), np.empty(count)
    with np.errstate(divide="ignore", over="ignore"):
        for step, i in enumerate(range(max(targets) - 1, start - 1, -1), 1):
            np.add(u, 1.0, out=shape)
            u = _site_counts(draw, i, shape, clipped, slice(None), buf)
            total += u
            if step in row_at:
                row = row_at[step]
                totals[row], clips[row] = total, clipped
                live = np.flatnonzero(u)
                heads[row] = live, u[live]
        for row, n in enumerate(targets):
            row_draw = draw if tail is None else tail(n)
            live, u = heads[row]
            i = start - 1
            while live.size:
                if floor is not None and i < min(floor, start):
                    clips[row, live] = True
                    break
                u = _site_counts(row_draw, i, u, clips[row], live, buf[: live.size])
                totals[row, live] += u
                keep = np.flatnonzero(u)
                live, u = live[keep], u[keep]
                i -= 1
    return np.subtract(targets, start)[:, None] + 2.0 * totals, clips


def sample_hitting_times(env, target: int, n_replicas: int, seed,
                         start: int = 0, reflect_at: int | None = None) -> np.ndarray:
    """Exact-in-distribution tau(start -> target) in one environment, by
    the branching cascade.  A reflecting site stops the cascade; without
    one the cascade must die out before the window's left edge, otherwise
    WindowExhausted asks for more environment.  An intensity past
    _LAM_CAP, or a cascade cut at a reflecting site above start, raises
    FloatingPointError rather than return a clipped draw.
    """
    if isinstance(env, QuenchedChain):
        lo = env.left + 1                       # a chain has omegas on its interior only
        omega_of = env.omega
        if reflect_at is None:
            reflect_at = env.reflect_at
    else:
        lo = env.offset
        omega_of = env.site
    if target <= start:
        raise ValueError("branching representation needs target > start")
    rng = seed if isinstance(seed, np.random.Generator) else \
        generator(stream_key(seed, "branch"))

    def rho_at(i: int, _size: int) -> float:
        if i == reflect_at:
            return 0.0
        if i < lo:
            raise WindowExhausted("left", "branching cascade")
        om = omega_of(i)
        return (1.0 - om) / om

    tau, clipped = _branching_cascade(_gamma_poisson(rho_at, rng), n_replicas, start,
                                      (target,), floor=reflect_at)
    if clipped.any():
        raise FloatingPointError(
            f"{int(clipped.sum())} of {n_replicas} replicas passed the branching "
            f"intensity cap {_LAM_CAP:g} or were cut at the reflecting site")
    return tau[0]

