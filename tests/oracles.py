"""Brute-force reference computations for the test suite.

Everything in this module is written the naive way on purpose: dense
banded solves of the first-step equations, plain floating point, no
log-domain accumulation, stepping walks, and, for the stable laws, the
kappa = 1/2 closed-form CDF and a gridded inverse subordinator.  The package's closed forms must reproduce
these numbers on small chains, and the package's own dense solver is
compared against this one as well, so every identity is checked through
two independently written routes.

Site convention: ``omega_full`` is indexed by site 0..L, where site L is
the absorbing target and ``omega_full[L]`` is unused.  A reflecting left
end is encoded as ``omega_full[0] = 1.0``; the left neighbour of site 0
is then a phantom state whose coupling ``1 - omega_0`` vanishes, so it
can be carried as an ordinary boundary value that is never entered.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erfc

from rwre.env import draw_omegas, sample_environment
from rwre.experiments import _census_fields
from rwre.potential import (
    DeepValley,
    StarValley,
    WindowExhausted,
    build_potential,
    check_good_environment,
    critical_height,
    descent_threshold,
    detect_deep_valleys,
    detect_star_valleys,
    excursion_table,
    first_ascent,
)
from rwre.rng import generator, stream_key
from rwre.stable import StableSpec, sample_positive_stable


def solve_tridiagonal(omega, rhs, boundary):
    """Solve x_i = omega_i x_{i+1} + (1 - omega_i) x_{i-1} + rhs_i on the
    interior states 1..m-1 of 0..m, with x_0 and x_m fixed by ``boundary``.

    ``omega`` and ``rhs`` run over the interior states.  Returns the full
    array of length m + 1 including both boundary values.
    """
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    ab = np.zeros((3, n))
    full_rhs = np.array(rhs, dtype=float)
    ab[1, :] = 1.0
    ab[0, 1:] = -omega[:-1]            # coupling of state i to i+1
    ab[2, :-1] = -(1.0 - omega[1:])    # coupling of state i to i-1
    full_rhs[0] += (1.0 - omega[0]) * boundary[0]
    full_rhs[-1] += omega[-1] * boundary[1]
    sol = solve_banded((1, 1), ab, full_rhs)
    # the system can be badly conditioned on long chains (the potential
    # spans many e-folds), so polish with iterative refinement using an
    # extended-precision residual
    om_l = omega.astype(np.longdouble)
    rhs_l = full_rhs.astype(np.longdouble)
    for _ in range(2):
        x = sol.astype(np.longdouble)
        r = rhs_l - x
        r[:-1] += om_l[:-1] * x[1:]
        r[1:] += (1.0 - om_l[1:]) * x[:-1]
        sol = sol + solve_banded((1, 1), ab, r.astype(float))
    return np.concatenate([[boundary[0]], sol, [boundary[1]]])


def exit_right_prob(omega_interior):
    """P{hit the right end before the left end} from every state of
    0..m, both ends absorbing, omegas over the interior."""
    m = len(omega_interior)
    return solve_tridiagonal(omega_interior, np.zeros(m), (0.0, 1.0))


def hit_time_reflected(omega_full, start):
    """Expected steps from ``start`` to site L, reflected at site 0."""
    L = len(omega_full) - 1
    tot = solve_tridiagonal(omega_full[0:L], np.ones(L), (0.0, 0.0))
    return float(tot[start + 1])       # phantom state shifts indices by one


def edge_time_moments(omega_full):
    """(E T_k, E T_k^2) for the edge times T_k from k to k+1, k = 0..L-1,
    reflected at site 0: per k, the first-moment system M = 1 + P M and
    the second-moment system S = 2M - 1 + P S, both on 0..k and absorbed
    at k+1."""
    L = len(omega_full) - 1
    m, s = np.empty(L), np.empty(L)
    for k in range(L):
        om = omega_full[: k + 1]
        M = solve_tridiagonal(om, np.ones(k + 1), (0.0, 0.0))
        S = solve_tridiagonal(om, 2.0 * M[1:-1] - 1.0, (0.0, 0.0))
        m[k], s[k] = M[k + 1], S[k + 1]     # phantom state shifts indices by one
    return m, s


def hit_time_reflected_mp(omega_full, dps=60):
    """hit_time_reflected(omega_full, 0) by Thomas's elimination of the
    same first-step equations in mpmath at dps digits."""
    import mpmath
    with mpmath.workdps(dps):
        L = len(omega_full) - 1
        c_prime, d_prime = [], []
        for x in range(L):
            w = mpmath.mpf(float(omega_full[x]))
            lower, upper = -(1 - w), -w          # couplings of state x to x-1 and x+1
            denom = 1 - lower * (c_prime[-1] if x else 0)
            c_prime.append(upper / denom)
            d_prime.append((1 - lower * (d_prime[-1] if x else 0)) / denom)
        t = mpmath.mpf(0)                        # t(L) = 0
        for x in range(L - 1, -1, -1):
            t = d_prime[x] - c_prime[x] * t
        return float(t)


def crossing_env_fixed_window(law, h_values, key, window=30_000):
    """One crossing environment by the route that samples sites [0, window]
    once and solves each h's chain densely: E_0 tau(t_up - 1) reflected at
    0, or None when h does not rise in the window or rises at the first
    step."""
    env = sample_environment(law, (0, window), seed=key)
    path = build_potential(env)
    out = []
    for h in h_values:
        t_up = first_ascent(path, h)
        if t_up is None or t_up <= 1:
            out.append(None)
            continue
        omega_full = env.omegas[:t_up].copy()    # sites 0 .. t_up - 1, the target
        omega_full[0] = 1.0
        out.append(hit_time_reflected(omega_full, 0))
    return out


def laplace_hit_reflected(omega_full, lam):
    """E[e^{-lam tau(L)}] from every site 0..L, reflected at site 0.

    Solves e^{lam} f(x) = omega_x f(x+1) + (1 - omega_x) f(x-1) with
    f(L) = 1 directly as a banded system.
    """
    L = len(omega_full) - 1
    om = np.asarray(omega_full[0:L], dtype=float)
    ab = np.zeros((3, L))
    ab[1, :] = np.exp(lam)
    ab[0, 1:] = -om[:-1]
    ab[2, :-1] = -(1.0 - om[1:])
    rhs = np.zeros(L)
    rhs[-1] = om[-1]
    sol = solve_banded((1, 1), ab, rhs)
    return np.concatenate([sol, [1.0]])


def attempt_reference(omega_full, b):
    """Conditional moments of one excursion attempt from b toward L.

    The attempt starts with one step from b; failure means returning to
    b before hitting L, success means hitting L first.  The chain is
    reflected at 0.  Returns a dict with the failure probability, the
    conditional first and second moments of the failure time, the
    conditional mean of the success time, and the unconditional expected
    hitting time of L from b.
    """
    L = len(omega_full) - 1
    om_right = omega_full[b + 1:L]     # interior of [b, L]

    # return probability u = P_{b+1}{hit b before L}
    if len(om_right):
        hit_b = solve_tridiagonal(om_right, np.zeros(len(om_right)), (1.0, 0.0))
        u = hit_b[1]
    else:
        u = 0.0
    p_fail = (1.0 - omega_full[b]) + omega_full[b] * u

    def restricted(om):
        """phi = P{absorb right}, T = E[steps; absorb left], S = second
        moment, on states 0..m with both ends absorbing."""
        m = len(om) + 1
        phi = solve_tridiagonal(om, np.zeros(m - 1), (1.0, 0.0))
        T = solve_tridiagonal(om, phi[1:-1], (0.0, 0.0))
        inner = 2.0 * (om * T[2:] + (1.0 - om) * T[:-2]) + phi[1:-1]
        S = solve_tridiagonal(om, inner, (0.0, 0.0))
        return phi, T, S

    # right part [b, L]: phi = P{absorb at b}, time moments on that event
    if len(om_right):
        phiR, TR, SR = restricted(om_right)
        phiR1, TR1, SR1 = phiR[1], TR[1], SR[1]
        psiR = 1.0 - phiR
        TG = solve_tridiagonal(om_right, psiR[1:-1], (0.0, 0.0))
        succ = omega_full[b] * psiR[1]
        mean_G = (omega_full[b] * (psiR[1] + TG[1])) / succ
    else:
        phiR1, TR1, SR1 = 0.0, 0.0, 0.0
        mean_G = 1.0

    # left part [0, b], b absorbing, 0 reflecting: extend the system by
    # the phantom state so the reflection is an ordinary interior site
    om_left = omega_full[0:b]          # sites 0..b-1 with omega_0 = 1
    phiL = solve_tridiagonal(om_left, np.zeros(b), (0.0, 1.0))
    TL = solve_tridiagonal(om_left, phiL[1:-1], (0.0, 0.0))
    innerL = 2.0 * (om_left * TL[2:] + (1.0 - om_left) * TL[:-2]) + phiL[1:-1]
    SL = solve_tridiagonal(om_left, innerL, (0.0, 0.0))
    phiLb, TLb, SLb = phiL[b], TL[b], SL[b]    # site b-1 sits at index b
    assert abs(phiLb - 1.0) < 1e-12, phiLb

    wb = omega_full[b]
    ef1 = (1 - wb) * (phiLb + TLb) + wb * (phiR1 + TR1)
    ef2 = (1 - wb) * (phiLb + 2 * TLb + SLb) + wb * (phiR1 + 2 * TR1 + SR1)
    total_time = hit_time_reflected(omega_full, b)
    return dict(
        u=u,
        p_fail=p_fail,
        mean_F=ef1 / p_fail,
        second_F=ef2 / p_fail,
        mean_G=mean_G,
        total_time=total_time,
    )


def walk_tau_reference(omega_full, start, target, rng, reflect_at=None):
    """One hitting time by plain stepping, for small chains only."""
    x = start
    steps = 0
    while x != target or steps == 0:
        if reflect_at is not None and x == reflect_at:
            x += 1
        else:
            x += 1 if rng.random() < omega_full[x] else -1
        steps += 1
    return steps


def branching_cascade_reference(rho_at, rng, count, start, target, floor=None,
                                lam_cap=5e18):
    """The branching cascade scanning every lane at every site: tau(start
    -> target) = (target - start) + 2 sum_i U_i, U_i given U_{i+1} drawn as
    Poisson(Gamma(U_{i+1} + 1) rho_at(i)) at sites >= start and as
    Poisson(Gamma(U_{i+1}) rho_at(i)) below, until every lane is zero or
    the scan passes below min(floor, start).  rho_at(i) gives a scalar or
    count values.  Returns (tau, clipped), clipped marking lanes whose
    intensity passed lam_cap or that were alive below floor."""
    u = np.zeros(count, dtype=np.float64)
    total = np.zeros(count, dtype=np.float64)
    clipped = np.zeros(count, dtype=bool)
    i = target - 1
    while i >= start or np.any(u > 0.0):
        if floor is not None and i < min(floor, start):
            clipped |= u > 0.0
            break
        rho = rho_at(i)
        lam = rng.standard_gamma(u + 1.0 if i >= start else u) * rho
        clipped |= lam > lam_cap
        u = rng.poisson(np.minimum(lam, lam_cap)).astype(np.float64)
        total += u
        i -= 1
    return (target - start) + 2.0 * total, clipped


def rho_reference(law, rng, size):
    """size draws of rho = (1-omega)/omega, omega from the generator's beta
    sampler or a choice among the atoms, clipped as the package clips."""
    if law.kind == "beta":
        om = rng.beta(law.alpha, law.beta, size)
    else:
        om = rng.choice(np.asarray(law.values), size=size, p=np.asarray(law.probs))
    om = np.clip(om, 1e-300, 1.0 - 1e-16)
    return (1.0 - om) / om


def log_rho_draws(law, rng, size):
    """log rho = log((1 - omega)/omega) of size draws of draw_omegas."""
    om = draw_omegas(law, rng, size)
    return np.log1p(-om) - np.log(om)


def series_block_reference(law, rng, size, truncation, rel_tol=1e-12, chunk=64):
    """R = sum_{k>=0} e^{V(k)} for ``size`` series, whole chunks at a time.

    Every active series draws ``chunk`` log-rho increments in one
    generator call per chunk (fewer when the term cap cuts the chunk),
    and a series stops once its last term is below ``rel_tol`` of its
    running sum.  Returns (R, number of series cut by the term cap).
    """
    r = np.ones(size)
    p = np.ones(size)
    active = np.arange(size)
    terms = 0
    while active.size and terms < truncation:
        width = min(chunk, truncation - terms)
        inc = log_rho_draws(law, rng, active.size * width).reshape(active.size, width)
        prods = p[active, None] * np.exp(np.cumsum(inc, axis=1))
        r[active] += prods.sum(axis=1)
        p[active] = prods[:, -1]
        terms += width
        active = active[p[active] > rel_tol * r[active]]
    return r, int(active.size)


def tail_window_read(r, kappa):
    """C_K read off the flat region of x^kappa P{R > x} in a series sample.

    40 levels run geometrically from the 99.9th percentile of the sample
    up to the largest level that still has 200 exceedances; the estimate
    is the mean of x^kappa times the empirical tail over them.  The
    standard error comes from the same read on 16 consecutive shards of
    the sample, with the levels held fixed.  Returns (estimate, standard
    error).
    """
    r_sorted = np.sort(r)
    lo = float(np.quantile(r_sorted, 0.999))
    hi = float(r_sorted[-200])
    if hi <= lo:
        hi = 2.0 * lo
    levels = np.geomspace(lo, hi, 40)

    def read(sample_sorted):
        exceed = len(sample_sorted) - np.searchsorted(sample_sorted, levels, side="right")
        return float(np.mean(levels ** kappa * exceed / len(sample_sorted)))

    shards = [read(np.sort(part)) for part in np.array_split(r, 16)]
    return read(r_sorted), float(np.std(shards, ddof=1) / 4.0)


def levy_cdf(x):
    """Closed-form CDF of the kappa = 1/2 unit Kanter law:
    P{S <= x} = erfc(1 / (2 sqrt(x)))."""
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.where(x_arr > 0.0, erfc(1.0 / (2.0 * np.sqrt(np.maximum(x_arr, 1e-300)))), 0.0)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


@dataclass(frozen=True)
class SubordinatorPath:
    """Inverse-subordinator observations.

    times are the requested t values; z_values holds x_scale * Z(t) where
    Z(t) = inf{s : Y(s) > t} for the unit subordinator Y; y_values and
    y_left_values hold Y at and just before the inversion point, so the
    sandwich Y(Z(t)-) <= t <= Y(Z(t)) is checkable from the result.
    """

    times: np.ndarray
    y_values: np.ndarray
    z_values: np.ndarray
    y_left_values: np.ndarray


def inverse_subordinator_path(kappa, x_scale, times, dt, seed=0):
    """Z(t) = inf{s : Y(s) > t} for a unit kappa-stable subordinator Y,
    observed at the given times and scaled by x_scale.

    Y is built on the s-grid {0, dt, 2dt, ...} from exact stable
    increments of scale dt^{1/kappa}; the grid extends until Y clears
    max(times).  Inversion is right-continuous with ties resolved to the
    earlier grid point.  A grid too coarse to resolve the requested times
    triggers a warning rather than silent degradation.  Z(1) has the law
    of S^{-kappa}, the law the position experiment samples directly.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    t_max = float(times.max()) if times.size else 0.0
    # Y(s) ~ s^{1/kappa} in scale: s reaching t_max needs about t_max^kappa
    expected_steps = (t_max ** kappa) / dt if t_max > 0 else 1.0
    if expected_steps < 100:
        warnings.warn(
            f"subordinator grid is coarse: about {expected_steps:.0f} steps to "
            f"cover the largest time; decrease dt for a usable inverse",
            RuntimeWarning, stacklevel=2)
    rng = generator(stream_key(seed, "subordinator"))
    spec = StableSpec(kappa=kappa, scale=dt ** (1.0 / kappa))
    chunk = max(1024, int(expected_steps * 1.5) + 16)
    y = np.zeros(1)
    while y[-1] <= t_max:
        inc = sample_positive_stable(spec, chunk, rng)
        y = np.concatenate([y, y[-1] + np.cumsum(inc)])
    idx = np.searchsorted(y, times, side="left")   # earliest index with Y >= t
    z_unit = idx * dt
    y_at = y[idx]
    y_left = y[np.maximum(idx - 1, 0)]
    return SubordinatorPath(times=times, y_values=y_at,
                            z_values=x_scale * z_unit, y_left_values=y_left)


# Full-window first-passage searches: each scans everything from its start
# to the window's end, the plain way the galloping searches of
# rwre.potential must reproduce site for site.

def excursions_reference(law, n, seed):
    """n excursions by a plain walk: each starts at V = 0 and steps by log
    rho until V <= 0.  Returns (v_end, length, height) as arrays."""
    def steps():
        rng = generator(seed)
        while True:
            yield from log_rho_draws(law, rng, 4096).tolist()
    step, rows = steps(), []
    for _ in range(n):
        v, length, height = next(step), 1, 0.0
        while v > 0.0:
            height = max(height, v)
            v, length = v + next(step), length + 1
        rows.append((v, length, height))
    return tuple(np.array(col) for col in zip(*rows))


def first_at_most_full(v, start, level):
    """First index k >= start with v[k] <= level, else None."""
    hits = np.flatnonzero(v[start:] <= level)
    return start + int(hits[0]) if hits.size else None


def last_at_least_full(v, stop, level):
    """Last index k <= stop with v[k] >= level, else None."""
    hits = np.flatnonzero(v[: stop + 1] >= level)
    return int(hits[-1]) if hits.size else None


def first_rise_full(v, start, h):
    """First index k >= start with v[k] - min(v[start..k]) >= h, else None."""
    tail = v[start:]
    hits = np.flatnonzero(tail - np.minimum.accumulate(tail) >= h)
    return start + int(hits[0]) if hits.size else None


def _site_or_raise(path, idx, side, what):
    if idx is None:
        raise WindowExhausted(side, what)
    return path.offset + idx


def grow_valley_full(path, b, d_bar, h_n, D_n, height):
    """(a, t_up, c, d) around the deep excursion [b, d_bar]."""
    v = path.v
    bi, dbi = path.index(b), path.index(d_bar)
    a = _site_or_raise(path, last_at_least_full(v, bi, v[bi] + D_n), "left",
                       f"valley backing a for b={b}")
    seg = path.slice_values(b, d_bar)
    t_up = b + int(np.flatnonzero(seg >= seg[0] + h_n)[0])
    c = b + int(np.argmax(seg))
    d = _site_or_raise(path, first_at_most_full(v, dbi, v[dbi] - D_n), "right",
                       f"valley descent d for d_bar={d_bar}")
    return DeepValley(a=a, b=b, c=c, d=d, d_bar=d_bar, t_up=t_up,
                      height=height, h_n=h_n, D_n=D_n)


def star_valleys_full(path, n, epsilon, kappa, table=None):
    """The first-passage valley scan, every search over the whole rest of
    the window; e_n is read from ``table`` when given."""
    h_n = critical_height(n, epsilon, kappa)
    D_n = descent_threshold(n, kappa)
    if table is None:
        table = excursion_table(path)
    if table.starts.size < n:
        raise WindowExhausted("right", f"e_n (only {table.starts.size} of {n} excursions realized)")
    e_n = int(table.ends[n - 1])
    v, i0 = path.v, -path.offset
    out = []
    origin = 0
    while True:
        oi = origin + i0
        gi = first_at_most_full(v, oi, v[oi] - D_n)
        if gi is None:
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley gamma")
        ti = first_rise_full(v, gi, h_n)
        if ti is None:
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley t_star")
        if ti - i0 > e_n:
            break
        seg = v[oi : ti + 1]
        b = origin + int(np.flatnonzero(seg == np.min(seg))[-1])
        a = _site_or_raise(path, last_at_least_full(v, b + i0, v[b + i0] + D_n),
                           "left", "star-valley a")
        d_bar = _site_or_raise(path, first_at_most_full(v, ti, v[b + i0]), "right",
                               "star-valley d_bar")
        c = b + int(np.argmax(path.slice_values(b, d_bar)))
        dbi = d_bar + i0
        d = _site_or_raise(path, first_at_most_full(v, dbi, v[dbi] - D_n), "right",
                           "star-valley d")
        out.append(StarValley(gamma=gi - i0, a=a, b=b, t_star=ti - i0, c=c,
                              d_bar=d_bar, d=d))
        origin = d
    return out


def census_env_resampled(law, n, epsilon, kappa, fallback, delta, c_prime, c_dprime,
                         key, left_pad, h_grid):
    """One census environment by the route that samples every window
    whole: sites [-left_pad, c_prime n + 2000] first, and on
    WindowExhausted the whole window again with 4x the left pad or 1.6x
    the right edge, four windows at most.  Returns the fields of
    experiments._census_env; retries counts the resamples."""
    left, right = -left_pad, int(math.ceil(c_prime * n)) + 2000
    for retries in range(4):
        path = build_potential(sample_environment(law, (left, right), seed=key))
        table = excursion_table(path)
        try:
            found = (detect_deep_valleys(path, n, epsilon, kappa, table=table),
                     detect_star_valleys(path, n, epsilon, kappa, table=table),
                     check_good_environment(path, n, epsilon, delta, c_prime, c_dprime,
                                            kappa, table=table, kappa_fallback=fallback),
                     table)
        except WindowExhausted as exhausted:
            left, right = ((4 * left, right) if exhausted.side == "left"
                           else (left, int(right * 1.6)))
            continue
        return dict(_census_fields(*found, n, h_grid), ok=True, retries=retries)
    return {"ok": False, "retries": 4}
