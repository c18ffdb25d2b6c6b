"""Potential landscape of an environment: ladders, excursions, valleys.

The potential V is the random walk's energy landscape: V(0) = 0 and
V(x) - V(x-1) = log rho_x.  The walk is trapped for long stretches in the
valleys of V, and everything in this module is about locating them:

* weak descending ladder epochs e_0 = 0 < e_1 < ... (V(e_i) <= all earlier
  values, equality counts) cut the path into excursions above the running
  minimum, each with a height H_i;
* an excursion with H >= h_n = ((1-eps)/kappa) log n is "deep"; around each
  deep excursion a valley (a, b, c, d_bar, d) is grown with D_n =
  (1 + 1/kappa) log n of backing on the left (a) and of descent on the
  right (d);
* an alternative scan ("star valleys") rebuilds the same objects from
  first passage times only, without reference to the excursion count, and
  coincides with the deep valleys except on rare environments;
* the good-environment events A1..A5 bound the total length, the valley
  count, the spacing, the widths, and the fluctuations inside the first
  valley.

Site indexing is absolute throughout: a path knows the site of its first
entry (offset), and every returned epoch or valley field is a site index.
Detection never silently truncates: if a valley needs sites outside the
realized window, WindowExhausted says which side, and the caller is
expected to widen the window and retry (environments are counter-based,
so a widened window agrees with the old one site by site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .env import EnvironmentSlice

__all__ = [
    "PotentialPath",
    "DeepValley",
    "StarValley",
    "GoodEnvironmentRecord",
    "WindowExhausted",
    "build_potential",
    "ladder_epochs",
    "excursion_table",
    "first_ascent",
    "max_increment",
    "min_increment",
    "critical_height",
    "descent_threshold",
    "detect_deep_valleys",
    "detect_star_valleys",
    "check_good_environment",
]


class WindowExhausted(RuntimeError):
    """A scan ran off the realized window; widen and retry.

    Attributes name the side ("left"/"right") that ran out and what the
    scan was locating.
    """

    def __init__(self, side: str, what: str):
        super().__init__(f"window exhausted on the {side} while locating {what}; "
                         f"widen the window and retry")
        self.side = side
        self.what = what


@dataclass(frozen=True)
class PotentialPath:
    offset: int                    # site index of v[0]
    v: np.ndarray                  # v[k] = V(offset + k)
    env_ref: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.v)

    @property
    def last_site(self) -> int:
        return self.offset + len(self.v) - 1

    def index(self, site: int) -> int:
        idx = site - self.offset
        if not 0 <= idx < len(self.v):
            raise IndexError(f"site {site} outside window [{self.offset}, {self.last_site}]")
        return idx

    def value(self, site: int) -> float:
        return float(self.v[self.index(site)])

    def slice_values(self, lo: int, hi: int) -> np.ndarray:
        """V over the inclusive site range [lo, hi]."""
        return self.v[self.index(lo) : self.index(hi) + 1]


@dataclass(frozen=True)
class DeepValley:
    a: int
    b: int
    c: int
    d: int
    d_bar: int
    t_up: int
    height: float
    h_n: float
    D_n: float


@dataclass(frozen=True)
class StarValley:
    gamma: int
    a: int
    b: int
    t_star: int
    c: int
    d_bar: int
    d: int


@dataclass(frozen=True)
class GoodEnvironmentRecord:
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    k_n: int
    e_n: int
    q_hat: float
    band: tuple[int, int]
    joint: bool                    # A1 & A2 & A3 & A4 (A5 reported separately)


def build_potential(env: EnvironmentSlice) -> PotentialPath:
    """Potential of an environment slice.

    The slice provides omegas on sites [lo, hi]; the potential lives on
    [lo-1, hi] with V(x) - V(x-1) = log rho_x, anchored at V(0) = 0
    whenever site 0 lies in the window (otherwise the left edge is the
    anchor).
    """
    omegas = np.asarray(env.omegas, dtype=np.float64)
    if omegas.size == 0:
        raise ValueError("empty environment slice")
    log_rho = np.log1p(-omegas) - np.log(omegas)
    v = np.concatenate([[0.0], np.cumsum(log_rho)])
    offset = env.offset - 1
    anchor = -offset  # index of site 0
    if 0 <= anchor < len(v):
        v = v - v[anchor]
    return PotentialPath(offset=offset, v=v, env_ref=dict(env.seed_info))


def _origin_index(path: PotentialPath) -> int:
    idx = -path.offset
    if not 0 <= idx < len(path.v):
        raise ValueError("path window does not contain site 0")
    return idx


def ladder_epochs(path: PotentialPath) -> np.ndarray:
    """Weak descending ladder epochs e_0 = 0, e_i = inf{k > e_{i-1}:
    V(k) <= V(e_{i-1})}, as absolute sites, truncated at the window end."""
    i0 = _origin_index(path)
    v = path.v[i0:]
    if len(v) == 1:
        return np.array([0], dtype=np.int64)
    runmin = np.minimum.accumulate(v)
    # k >= 1 is a ladder epoch iff V(k) <= min over [0, k-1]
    is_ladder = v[1:] <= runmin[:-1]
    # indices into v[i0:] are already absolute sites (v[i0] sits at site 0)
    epochs = np.concatenate([[0], 1 + np.flatnonzero(is_ladder)])
    return epochs.astype(np.int64)


class ExcursionTable(NamedTuple):
    """Columnar view of the complete excursions: one row per consecutive
    ladder pair, starts and ends as absolute sites, and the height
    max over [start, end] of V - V(start)."""

    starts: np.ndarray
    ends: np.ndarray
    heights: np.ndarray


def excursion_table(path: PotentialPath) -> ExcursionTable:
    """Vectorized excursion scan.  Million-site windows hold hundreds of
    thousands of excursions, so the scans below work on these arrays."""
    eps = ladder_epochs(path)
    if len(eps) < 2:
        empty = np.empty(0, dtype=np.int64)
        return ExcursionTable(empty, empty, np.empty(0))
    i0 = _origin_index(path)
    v = path.v
    starts = eps[:-1] + i0
    ends = eps[1:] + i0
    # max over [start, end); the endpoint cannot exceed it since
    # V(end) <= V(start) <= the segment max.  The scan stops at the last
    # ladder epoch: sites past it belong to an incomplete excursion and
    # must not leak into the last height.
    stop = int(ends[-1])
    seg_max = np.maximum.reduceat(v[:stop], starts)
    heights = seg_max - v[starts]
    return ExcursionTable(starts=eps[:-1].astype(np.int64),
                          ends=eps[1:].astype(np.int64), heights=heights)


def first_ascent(path: PotentialPath, h: float) -> int | None:
    """First site x >= 0 with max rise V_up(0, x) >= h, else None."""
    i0 = _origin_index(path)
    v = path.v[i0:]
    up = v - np.minimum.accumulate(v)
    hits = np.flatnonzero(up >= h)
    return int(hits[0]) if hits.size else None


def max_increment(path: PotentialPath, x: int, y: int) -> float:
    """V_up(x,y) = max_{x<=i<=j<=y} (V(j) - V(i)); 0 at worst (i=j)."""
    seg = path.slice_values(x, y)
    return float(np.max(seg - np.minimum.accumulate(seg)))


def min_increment(path: PotentialPath, x: int, y: int) -> float:
    """V_down(x,y) = min_{x<=i<=j<=y} (V(j) - V(i)); 0 at best (i=j)."""
    seg = path.slice_values(x, y)
    return float(np.min(seg - np.maximum.accumulate(seg)))


def critical_height(n: int, epsilon: float, kappa: float) -> float:
    """h_n = ((1-eps)/kappa) log n, the depth that makes a valley count."""
    return (1.0 - epsilon) / kappa * math.log(n)


def descent_threshold(n: int, kappa: float) -> float:
    """D_n = (1 + 1/kappa) log n, the backing required left and right."""
    return (1.0 + 1.0 / kappa) * math.log(n)


def _check_valley_params(n: int, epsilon: float) -> None:
    if n < 2:
        raise ValueError(f"valley detection needs n >= 2, got {n}")
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError(f"epsilon must lie in (0, 1/3), got {epsilon}")


def _backing_site(path: PotentialPath, b: int, D_n: float, what: str) -> int:
    """a: the last site at or before b with V(a) - V(b) >= D_n."""
    bi = path.index(b)
    back = np.flatnonzero(path.v[: bi + 1] >= path.v[bi] + D_n)
    if back.size == 0:
        raise WindowExhausted("left", what)
    return path.offset + int(back[-1])


def _summit_site(path: PotentialPath, b: int, d_bar: int) -> int:
    """c: the first argmax of V over [b, d_bar]."""
    return b + int(np.argmax(path.slice_values(b, d_bar)))


def _descent_site(path: PotentialPath, d_bar: int, D_n: float, what: str) -> int:
    """d: the first site at or after d_bar with V(d) - V(d_bar) <= -D_n."""
    dbi = path.index(d_bar)
    drops = np.flatnonzero(path.v[dbi:] <= path.v[dbi] - D_n)
    if drops.size == 0:
        raise WindowExhausted("right", what)
    return d_bar + int(drops[0])


def _grow_valley(path: PotentialPath, b: int, d_bar: int, h_n: float, D_n: float,
                 height: float) -> DeepValley:
    """Grow (a, t_up, c, d) around a deep excursion [b, d_bar]."""
    a = _backing_site(path, b, D_n, f"valley backing a for b={b}")
    # t_up: first site at or after b with V - V(b) >= h_n (inside the
    # excursion because its height reaches h_n)
    seg = path.slice_values(b, d_bar)
    t_up = b + int(np.flatnonzero(seg >= seg[0] + h_n)[0])
    c = _summit_site(path, b, d_bar)
    d = _descent_site(path, d_bar, D_n, f"valley descent d for d_bar={d_bar}")
    return DeepValley(a=a, b=b, c=c, d=d, d_bar=d_bar, t_up=t_up,
                      height=height, h_n=h_n, D_n=D_n)


def _first_excursions(path: PotentialPath, n: int,
                      table: ExcursionTable | None) -> ExcursionTable:
    """The path's excursion table (reused when given), which must hold
    the first n excursions."""
    if table is None:
        table = excursion_table(path)
    realized = table.starts.size
    if realized < n:
        raise WindowExhausted("right", f"e_n (only {realized} of {n} excursions realized)")
    return table


def detect_deep_valleys(path: PotentialPath, n: int, epsilon: float, kappa: float,
                        table: ExcursionTable | None = None) -> list[DeepValley]:
    """Valleys around every excursion among the first n whose height
    reaches h_n.  K_n is the length of the returned list.  ``table``
    reuses an excursion scan already done on this path."""
    _check_valley_params(n, epsilon)
    h_n = critical_height(n, epsilon, kappa)
    D_n = descent_threshold(n, kappa)
    table = _first_excursions(path, n, table)
    out = []
    for i in np.flatnonzero(table.heights[:n] >= h_n):
        out.append(_grow_valley(path, int(table.starts[i]), int(table.ends[i]),
                                h_n, D_n, float(table.heights[i])))
    return out


def detect_star_valleys(path: PotentialPath, n: int, epsilon: float, kappa: float,
                        ) -> list[StarValley]:
    """First-passage valley scan, iterated by shifting the origin to the
    previous valley's d; keeps valleys with t_star <= e_n."""
    _check_valley_params(n, epsilon)
    h_n = critical_height(n, epsilon, kappa)
    D_n = descent_threshold(n, kappa)
    eps_ladder = ladder_epochs(path)
    if len(eps_ladder) < n + 1:
        raise WindowExhausted(
            "right", f"e_n (only {len(eps_ladder) - 1} of {n} excursions realized)")
    e_n = int(eps_ladder[n])
    i0 = _origin_index(path)
    v = path.v
    out: list[StarValley] = []
    origin = 0  # shift anchor (site); first block starts at the origin
    while True:
        oi = origin + i0
        # gamma: first k >= origin with V(k) - V(origin) <= -D_n
        descents = np.flatnonzero(v[oi:] <= v[oi] - D_n)
        if descents.size == 0:
            # no further D_n-descent in the window; the construction would
            # need more path, but any remaining valley has t_star beyond
            # whatever the window holds, so stop only if we are past e_n
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley gamma")
        gamma = origin + int(descents[0])
        gi = gamma + i0
        # t_star: first k >= gamma with V_up(gamma, k) >= h_n
        tail = v[gi:]
        up = tail - np.minimum.accumulate(tail)
        rises = np.flatnonzero(up >= h_n)
        if rises.size == 0:
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley t_star")
        t_star = gamma + int(rises[0])
        if t_star > e_n:
            break
        ti = t_star + i0
        # b: LAST argmin of V over [origin, t_star]
        seg = v[oi : ti + 1]
        vmin = np.min(seg)
        b = origin + int(np.flatnonzero(seg == vmin)[-1])
        a = _backing_site(path, b, D_n, "star-valley a")
        # d_bar: first k >= t_star with V(k) <= V(b)
        lows = np.flatnonzero(v[ti:] <= v[b + i0])
        if lows.size == 0:
            raise WindowExhausted("right", "star-valley d_bar")
        d_bar = t_star + int(lows[0])
        c = _summit_site(path, b, d_bar)
        d = _descent_site(path, d_bar, D_n, "star-valley d")
        out.append(StarValley(gamma=gamma, a=a, b=b, t_star=t_star, c=c,
                              d_bar=d_bar, d=d))
        origin = d
    return out


def check_good_environment(path: PotentialPath, n: int, epsilon: float, delta: float,
                           Cprime: float, Cdoubleprime: float, kappa: float,
                           q_hat: float | None = None,
                           table: ExcursionTable | None = None) -> GoodEnvironmentRecord:
    """Evaluate the good-environment events literally.

    A1: e_n < Cprime * n.
    A2: floor(n q (1 - n^{-eps/4})) <= K_n <= ceil(n q (1 + n^{-eps/4})),
        with q the supplied Monte Carlo estimate q_hat (default: this
        path's own deep fraction K_n / n).  The q = 0 edge makes the band
        [0, 0], a vacuous truth for K_n = 0.
    A3: consecutive deep-excursion indices (sigma(0) := 0) differ by at
        least n^{1-3eps}, including the gap to the first deep excursion
        after sigma(K_n).
    A4: every valley among j = 1..K_n+1 has width d_j - a_j <= Cdoubleprime
        * log n (the K_n+1-st is the first deep valley past e_n).
    A5: on the first deep valley, max(V_up(a,b), -V_down(b,c), V_up(c,d))
        <= delta log n.  Vacuously true when no deep valley exists in the
        window.

    The joint field is A1 & A2 & A3 & A4; A5 is reported separately.
    """
    _check_valley_params(n, epsilon)
    if delta <= epsilon / kappa:
        raise ValueError(f"delta must exceed eps/kappa = {epsilon / kappa:.6g}, got {delta}")
    h_n = critical_height(n, epsilon, kappa)
    D_n = descent_threshold(n, kappa)
    table = _first_excursions(path, n, table)
    realized = table.starts.size
    e_n = int(table.ends[n - 1])
    deep_all = np.flatnonzero(table.heights >= h_n) + 1  # 1-based excursion indices
    deep_first_n = deep_all[deep_all <= n]
    k_n = int(len(deep_first_n))

    a1 = e_n < Cprime * n

    q = q_hat if q_hat is not None else k_n / n
    margin = n ** (-epsilon / 4.0)
    lo = math.floor(n * q * (1.0 - margin))
    hi = math.ceil(n * q * (1.0 + margin))
    a2 = lo <= k_n <= hi

    gap_min = n ** (1.0 - 3.0 * epsilon)
    sigma = np.concatenate([[0], deep_first_n])
    a3 = not bool(np.any(np.diff(sigma) < gap_min))
    if a3 and k_n > 0:
        # gap from sigma(K_n) to the next deep excursion anywhere after it
        later = deep_all[deep_all > sigma[-1]]
        if later.size:
            if later[0] - sigma[-1] < gap_min:
                a3 = False
        elif realized - sigma[-1] < gap_min:
            raise WindowExhausted(
                "right", "the deep excursion after sigma(K_n) (A3 gap undecidable)")

    # valleys 1..K_n+1; the last one is the first deep excursion past n
    a4 = True
    a5 = True
    valley_indices = list(deep_first_n)
    later = deep_all[deep_all > n]
    if later.size:
        valley_indices.append(int(later[0]))
    elif k_n > 0 or deep_all.size > 0:
        raise WindowExhausted(
            "right", "the first deep valley past e_n (A4 needs K_n + 1 valleys)")
    # if no deep excursion exists anywhere in the window, A4/A5 are vacuous
    width_cap = Cdoubleprime * math.log(n)
    for rank, exc_idx in enumerate(valley_indices):
        i = exc_idx - 1
        valley = _grow_valley(path, int(table.starts[i]), int(table.ends[i]),
                              h_n, D_n, float(table.heights[i]))
        if valley.d - valley.a > width_cap:
            a4 = False
        if rank == 0:
            fluct = max(
                max_increment(path, valley.a, valley.b),
                -min_increment(path, valley.b, valley.c),
                max_increment(path, valley.c, valley.d),
            )
            a5 = fluct <= delta * math.log(n)

    return GoodEnvironmentRecord(
        a1=bool(a1), a2=bool(a2), a3=bool(a3), a4=bool(a4), a5=bool(a5),
        k_n=k_n, e_n=int(e_n), q_hat=float(q), band=(int(lo), int(hi)),
        joint=bool(a1 and a2 and a3 and a4),
    )

