"""Quenched hitting-time analysis on a finite stretch of environment.

Everything here conditions on one realized environment.  The central
object is a QuenchedChain: omegas on a site interval [left, right], an
optional reflecting site, and the restriction of the potential, built
when first read.  On top of it:

* exit and failure probabilities through the classical e^V sums;
* the two Doob transforms of an excursion attempt from b (conditioned to
  fail back to b before reaching d, or to succeed), with the transformed
  potentials and their gap arrays;
* the first and second moments of the edge times of a reflected chain,
  by one recursion each (Solomon 1975), which give E_0 tau(r) for every
  target r, the conditional moments of the failure time F and the
  exact mean of the success time G, with a computable bound for it;
* a tridiagonal solve of the Laplace transform of a hit, for the
  reduction check: LAPACK's gtsv in place, the routine solve_banded
  calls for (1, 1) bands, so its bits are those of solve_banded;
* hitting-time sampling in a chain through the branching representation
  of tau(n), which is exact in distribution and turns one hitting time
  into O(n) negative binomial draws instead of O(tau) coin flips.

All probability-weighted sums run in the log domain through one
accumulated logaddexp, _log_sums, so a valley of depth 700 is as safe as
one of depth 7.  The transformed potentials are represented through
their gap to the base potential; the gaps are monotone by construction
(accumulated logaddexp cannot decrease, and IEEE rounding preserves
order under a constant shift), so the comparison inequalities between
transformed and base increments hold exactly in floating point, not just
up to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

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

    The value V(right) needs omega at the right edge, which the chain
    keeps as edge_omega; it enters nothing but that last potential
    increment.  base_potential, V on [left, right] with V(left) = 0, is
    built when first read and kept on the instance: the tridiagonal
    solve reads only the omegas, so the reduction's chains never build
    it.  The omegas are not copied.  A reflecting site (omega forced to
    1) is stored as a field and applied inside computations; the stored
    omegas stay in (0, 1).
    """

    left: int
    right: int
    omegas: np.ndarray            # sites left+1 .. right-1
    edge_omega: float             # site right
    reflect_at: int | None = None

    def __post_init__(self):
        width = self.right - self.left
        if width < 1:
            raise ValueError("chain needs right > left")
        if len(self.omegas) != width - 1:
            raise ValueError(f"expected {width - 1} interior omegas, got {len(self.omegas)}")
        if np.any(self.omegas <= 0.0) or np.any(self.omegas >= 1.0):
            raise ValueError("interior omegas must lie strictly in (0, 1)")
        if not 0.0 < self.edge_omega < 1.0:
            raise ValueError("the edge omega must lie strictly in (0, 1)")
        if self.reflect_at is not None and not self.left <= self.reflect_at < self.right:
            raise ValueError("reflect_at must lie in [left, right)")

    @property
    def base_potential(self) -> np.ndarray:
        """V on sites left .. right, kept after the first read.  Threads
        that race on that read build equal arrays, so no lock is taken."""
        v = self.__dict__.get("base_potential")
        if v is None:
            om = np.append(self.omegas, self.edge_omega)
            v = self.__dict__["base_potential"] = np.concatenate(
                [[0.0], np.cumsum(np.log1p(-om) - np.log(om))])
        return v

    @classmethod
    def from_omegas(cls, omegas, left: int = 0,
                    reflect_at: int | None = None) -> "QuenchedChain":
        """Build from omegas on sites left+1 .. left+len(omegas), with V(left)
        = 0.  The last omega is the right edge and only feeds V(right)."""
        om = np.asarray(omegas, dtype=np.float64)
        if om.size < 1:
            raise ValueError("need at least one omega")
        return cls(left=left, right=left + om.size, omegas=om[:-1],
                   edge_omega=float(om[-1]), reflect_at=reflect_at)

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


def _log_sums(a: np.ndarray, suffix: bool = False) -> np.ndarray:
    """out[k] = log sum_{j<=k} e^{a[j]}, the total at out[-1]; with suffix,
    log sum_{j>=k} e^{a[j]}, the total at out[0].  Every log-domain sum
    over a run of sites in this module goes through this one function."""
    if suffix:
        return np.logaddexp.accumulate(a[::-1])[::-1]
    return np.logaddexp.accumulate(a)


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
        x[s + 1 : s + 1 + len(shift)] = shift + _log_sums(
            np.concatenate(([x[s]], log_add[s : s + len(shift)] - shift)))[1:]
    return x


def _log_edge_moments(v: np.ndarray, second: bool = True):
    """(log m, log s) for the edge times T_k from k to k+1, k = 0 .. K, of
    the chain reflected at 0 whose potential is v[k] = V(k) on 0 .. K:
    m_k = E T_k and s_k = E T_k^2.  A first step that fails costs one
    step, then T_{k-1} and a fresh T_k, so with m_0 = s_0 = 1,

        m_k = 1 + rho_k (1 + m_{k-1}),
        s_k = 1 + rho_k (1 + 2 (m_{k-1} + m_k + m_{k-1} m_k) + s_{k-1}),

    all positive.  log s is None unless second."""
    log_rho = np.diff(v)                        # sites 1 .. K
    log_m = _log_linear_recurrence(0.0, np.logaddexp(0.0, log_rho), log_rho)
    if not second:
        return log_m, None
    cross = np.logaddexp(np.logaddexp(log_m[:-1], log_m[1:]), log_m[:-1] + log_m[1:])
    log_add = np.logaddexp(0.0, log_rho + np.logaddexp(0.0, math.log(2.0) + cross))
    return log_m, _log_linear_recurrence(0.0, log_add, log_rho)


def expected_hitting_times(v: np.ndarray) -> np.ndarray:
    """E_0 tau(r) = r + 2 sum_{0<=j<i<r} e^{V(i) - V(j)} (Solomon 1975),
    reflected at 0, for r = 0 .. R, off v[k] = V(k) on 0 .. R: the partial
    sums of the edge means m_k of _log_edge_moments."""
    log_m, _ = _log_edge_moments(v[:-1], second=False)
    return np.concatenate(([0.0], np.cumsum(np.exp(log_m[: len(v) - 1]))))


def exit_prob(chain: QuenchedChain, x: int, l: int, r: int) -> float:
    """P^x{hit r before l} = sum_{k=l}^{x-1} e^{V(k)} / sum_{k=l}^{r-1} e^{V(k)}."""
    if not (chain.left <= l <= x <= r <= chain.right):
        raise ValueError(f"need left <= l <= x <= r <= right, got l={l}, x={x}, r={r}")
    if l == r:
        raise ValueError("degenerate interval")
    if x == l:
        return 0.0
    v = chain._vslice(l, r - 1)
    sums = _log_sums(v - v[0])                  # small sums round little, however deep V(l)
    return float(math.exp(sums[x - 1 - l] - sums[-1]))


def failure_prob(chain: QuenchedChain, b: int, d: int) -> tuple[float, float]:
    """(p, 1-p) for one attempt from b against the wall at d:
    1 - p = omega_b g(b+1) = omega_b / sum_{x=b}^{d-1} e^{V(x) - V(b)}."""
    if not (chain.left < b < d <= chain.right):
        raise ValueError(f"need left < b < d <= right, got b={b}, d={d}")
    v = chain._vslice(b, d - 1)
    log_success = math.log(chain.omega(b)) - _log_sums(v - v[0])[-1]
    return -math.expm1(log_success), math.exp(log_success)


def _check_harmonic(omegas: np.ndarray, log_scale: np.ndarray, v: np.ndarray,
                    what: str) -> None:
    """Relative residual of scale(x) = w scale(x+1) + (1-w) scale(x-1),
    against a bound set by the rounding of the log-domain accumulation.

    log_scale is a running logaddexp over e^{V - V(b)} on the potential v,
    shifted by its total.  Each of its entries, and each V it was built
    from, is a value of magnitude up to about M = max|v| + log(len(v))
    rounded to half an ulp, eps M / 2.  The residual is 1 minus w e^{d_up} +
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
    """Doob transform of the attempt from b on [b, d]; see HTransform.

    Both kinds take omega-hat(x) = omega(x) s(x+1) / s(x) and gap(x) =
    log s(a) + log s(a+1) - log s(x) - log s(x+1) from their scale function
    s, so the gap is 0 at the anchor a: b for failure, b+1 for success."""
    if not (chain.left <= b < d <= chain.right):
        raise ValueError(f"need left <= b < d <= right, got b={b}, d={d}")
    if kind not in ("failure", "success"):
        raise ValueError(f"kind must be 'failure' or 'success', got {kind!r}")
    v = chain._vslice(b, d)                     # V(b) .. V(d)
    interior = chain._wslice(b + 1, d - 1)
    width, a = d - b, int(kind == "success")    # the anchor is site b + a
    sums = _log_sums(v[:-1] - v[0], suffix=not a)   # e^{V(x) - V(b)} over x = b .. d-1
    if a:   # g(x) = sum over [b, x-1] / total, on [b, d+1] with g(d+1) := 1
        log_scale = np.concatenate(([-math.inf], sums - sums[-1], [0.0]))
    else:   # h(x) = sum over [x, d-1] / total, on [b, d]
        log_scale = np.append(sums - sums[0], -math.inf)
    omegas_hat = np.exp(np.log(interior) + log_scale[2 : width + 1] - log_scale[1:width])
    _check_harmonic(interior, log_scale[: width + 1], v[:-1], kind)
    gap = np.full(width + 1, math.inf)          # failure at d: h(d) = 0
    with np.errstate(invalid="ignore"):         # failure of width 1: -inf - -inf at b
        gap[: log_scale.size - 1] = (log_scale[a] + log_scale[a + 1]
                                     - log_scale[:-1] - log_scale[1:])
    if a:
        omegas_hat[:1] = 1.0                    # exact: omega (1 + rho) = 1
    else:
        gap[0] = 0.0                            # exact: V-hat(b) = V(b)
    return HTransform(kind=kind, b=b, d=d, omegas_hat=omegas_hat,
                      v_hat=v + gap, gap=gap, log_scale=log_scale)


def attempt_moments(chain: QuenchedChain, a: int, b: int, d: int) -> AttemptMoments:
    """Exact conditional attempt moments; needs reflection at a."""
    if not (chain.left <= a < b < d <= chain.right):
        raise ValueError(f"need left <= a < b < d <= right, got a={a}, b={b}, d={d}")
    if chain.reflect_at != a:
        raise ValueError(f"attempt decomposition needs reflect_at == a == {a}, "
                         f"chain has {chain.reflect_at}")
    omega_b = chain.omega(b)
    ht = h_transform(chain, b, d, "failure")
    v_hat = ht.v_hat                            # V-hat on [b, d]
    log_u = float(ht.log_scale[1])              # log h(b+1); -inf when d = b+1
    p_fail = (1.0 - omega_b) + omega_b * math.exp(log_u)

    # A failure is one step off b and an edge time T back to b: on the left
    # of the chain a .. b-1 reflected at a; on the right of the failure
    # transform on b+1 .. d-1, read right to left and reflected at d-1, whose
    # potential at site i is V-hat(i-1) (rho' = 1 / rho-hat, rho-hat_i =
    # rho_i h(i-1) / h(i+1)).  E[F; fail] sums E(1 + T) and E[F^2; fail]
    # sums E(1 + T)^2 = 1 + 2m + s over the two sides, weighted by the
    # chance of each.
    first, second = [], []
    for log_weight, v in ((math.log1p(-omega_b), chain._vslice(a, b - 1)),
                          (math.log(omega_b) + log_u, v_hat[: d - b - 1][::-1])):
        log_m, log_s = _log_edge_moments(v)
        first.append(log_weight + np.logaddexp(0.0, log_m[-1]))
        second.append(log_weight + np.logaddexp(
            np.logaddexp(0.0, math.log(2.0) + log_m[-1]), log_s[-1]))
    log_p_fail = math.log(p_fail)
    mean_F = math.exp(np.logaddexp(*first) - log_p_fail)
    second_F = math.exp(np.logaddexp(*second) - log_p_fail)

    # success-side bound: 1 + 2 sum_{b+1 <= i <= j <= d} e^{V-bar(j) - V-bar(i)}.
    # The factor 2 makes this a true pathwise bound: expanding the exact
    # transit time gives each off-diagonal pair twice (once through 1/w
    # and once through rho/w at the lower site), so the ordered-pair sum
    # alone can fall short of the exact mean by up to that factor.
    hs = h_transform(chain, b, d, "success")
    v_bar = hs.v_hat[1:]                        # finite on [b+1, d]
    log_L = _log_sums(v_bar, suffix=True)
    mean_G_bound = 1.0 + 2.0 * math.exp(_log_sums(log_L - v_bar)[-1])

    # potential sums: attempt count and depth factors
    left_part = chain.v(b) - chain._vslice(a + 1, b - 1) if b > a + 1 else np.array([])
    right_part = -(v_hat[: d - b] - chain.v(b))           # x = b .. d-1
    m1_hat = math.exp(_log_sums(np.concatenate([left_part, right_part]))[-1])
    v_bd = chain._vslice(b, d - 1)
    m2 = math.exp(_log_sums(v_bd - np.max(v_bd))[-1])    # = sum e^{V(x) - V(c)}
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


def linear_solve_oracle(chain: QuenchedChain, target: int, lam: float = 0.0) -> np.ndarray:
    """E^x[e^{-lam tau(target)}; absorbed at target] at every site x of
    [left, right], by a tridiagonal solve of the harmonic system.

    Both endpoints absorb, unless the chain reflects at its left end;
    target is one of them, and lam = 0 gives the hit probability
    P^x{absorbed at target}.  LAPACK's gtsv, the routine solve_banded
    calls for (1, 1) bands, solves in place in the returned array, so
    the bits are those of solve_banded.  Its rounding grows with the
    chain: on reflected Beta(1.5, 1) chains of 2200 sites its hit
    probabilities sit up to 2e-5 from the exact 1, above or below.  The
    values are clipped into [0, 1], the functional's range; that removes
    only the excess above 1, not the error below it.
    """
    L, R = chain.left, chain.right
    if target not in (L, R) or target == chain.reflect_at:
        raise ValueError("target must be an absorbing endpoint")
    # unknown sites: interior, plus the left end if it reflects
    x0 = L if chain.reflect_at == L else L + 1
    x1 = R - 1
    out = np.zeros(R - L + 1)
    out[target - L] = 1.0             # absorbed at once: 1 at target, 0 at the other end
    if x1 < x0:
        return out
    w = chain._wslice(x0, x1)
    rhs = out[x0 - L : x1 - L + 1]    # the right-hand side, overwritten by the solution
    if target == L:
        rhs[0] = 1.0 - w[0]
    else:
        rhs[-1] = w[-1]
    diag = math.exp(lam)
    if rhs.size == 1:                 # gtsv refuses empty off-diagonals
        x = rhs / diag
    else:
        sub = w[1:] - 1.0                          # couplings to x-1
        sup = np.negative(w[:-1], out=w[:-1])      # couplings to x+1, in w's place
        *_, x, info = dgtsv(sub, np.full(rhs.size, diag), sup, rhs, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
    np.clip(x, 0.0, 1.0, out=rhs)     # in place, unless f2py copied rhs
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


def sample_hitting_times(chain: QuenchedChain, target: int, n_replicas: int, seed,
                         start: int = 0) -> np.ndarray:
    """Exact-in-distribution tau(start -> target) in the chain's
    environment, by the branching cascade.  The chain's reflecting site
    stops the cascade; without one the cascade must die out before the
    chain's left end, otherwise WindowExhausted asks for more environment.
    An intensity past _LAM_CAP, or a cascade cut at a reflecting site above
    start, raises FloatingPointError rather than return a clipped draw.
    """
    if target <= start:
        raise ValueError("branching representation needs target > start")
    rng = seed if isinstance(seed, np.random.Generator) else \
        generator(stream_key(seed, "branch"))

    def rho_at(i: int, _size: int) -> float:
        if i == chain.reflect_at:
            return 0.0
        if i <= chain.left:                     # a chain has omegas on its interior only
            raise WindowExhausted("left", "branching cascade")
        om = chain.omega(i)
        return (1.0 - om) / om

    tau, clipped = _branching_cascade(_gamma_poisson(rho_at, rng), n_replicas, start,
                                      (target,), floor=chain.reflect_at)
    if clipped.any():
        raise FloatingPointError(
            f"{int(clipped.sum())} of {n_replicas} replicas passed the branching "
            f"intensity cap {_LAM_CAP:g} or were cut at the reflecting site")
    return tau[0]
