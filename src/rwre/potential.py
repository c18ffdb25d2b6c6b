"""Potential landscape of an environment: ladders, excursions, valleys.

The potential V is the random walk's energy landscape: V(0) = 0, V(x) =
sum_{0<i<=x} log rho_i for x > 0 and -sum_{x<i<=0} log rho_i for x < 0.
The walk is trapped for long stretches in the valleys of V, and
everything in this module is about locating them:

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

The valley scans find a, d, gamma, t_star and d_bar by first-passage
searches that gallop: each scans chunks of 1024, 2048, 4096, ... sites
outward from its start and stops at the first chunk holding the hit, so
growing a valley costs time in proportion to the valley, not to the rest
of the window.

Site indexing is absolute throughout: a path knows the site of its first
entry (offset), and every returned epoch or valley field is a site index.
Detection never silently truncates: if a valley needs sites outside the
realized window, WindowExhausted says which side, and the caller
(experiments._widening) grows the window and retries.  Environments are
keyed by site block, so a grown window agrees with the old one site by
site, and V, summed outward from site 0, does not depend on its edges.
So a window grows on either side: build_potential continues a path over
the new sites only and excursion_table a table from its last complete
excursion, both bit for bit as a whole build.  A built path and table
keep spare room past the end of their arrays, and a growth on the right
writes its sites and rows into it, so the old ones are neither copied
nor moved; a growth on the left, or past the room, copies once into a
new array with room again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        super().__init__(f"window exhausted on the {side} while locating {what}")
        self.side = side
        self.what = what


_ROOM = 2                          # a new array holds this many times its entries


class _Room:
    """A 1-D array with spare room past its first ``size`` entries.  Paths
    and tables hold views of data[:size]; a continuation claims the entries
    past size, so views handed out before keep their values and no two
    continuations of one view share an entry."""

    __slots__ = ("data", "size")

    def __init__(self, size: int, dtype) -> None:
        self.data = np.empty(_ROOM * size, dtype)
        self.size = size

    def claim(self, held: np.ndarray, extra: int) -> np.ndarray | None:
        """The ``extra`` entries after ``held``, now taken, when held is
        data[:size] and they fit; else None."""
        if (len(held) != self.size or self.size + extra > len(self.data)
                or held.ctypes.data != self.data.ctypes.data):
            return None
        self.size += extra
        return self.data[self.size - extra : self.size]


@dataclass(frozen=True)
class PotentialPath:
    offset: int                    # site index of v[0]
    v: np.ndarray                  # v[k] = V(offset + k)
    room: _Room | None = field(default=None, repr=False, compare=False)

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

    def joined(self, piece: "PotentialPath") -> "PotentialPath":
        """This path and a continuation that build_potential made from it
        on either side (the piece repeats the value at the end it meets).
        A piece that build_potential wrote into this path's spare room on
        the right joins without a copy: the result is a longer view of the
        same array.  Any other piece is copied with this path into a new
        array with room."""
        if piece.offset == self.last_site:
            room, size = self.room, len(self.v) + len(piece.v) - 1
            if (room is not None and room.size == size and piece.v.base is room.data
                    and piece.v.ctypes.data == self.v[-1:].ctypes.data):
                return PotentialPath(offset=self.offset, v=room.data[:size], room=room)
            parts = (self.v, piece.v[1:])
        elif piece.last_site == self.offset:
            parts = (piece.v[:-1], self.v)
        else:
            raise ValueError(f"piece on sites [{piece.offset}, {piece.last_site}] meets "
                             f"neither end of [{self.offset}, {self.last_site}]")
        room = _Room(len(self.v) + len(piece.v) - 1, np.float64)
        np.concatenate(parts, out=room.data[:room.size])
        return PotentialPath(offset=min(self.offset, piece.offset), v=room.data[:room.size],
                             room=room)


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


def build_potential(env: EnvironmentSlice,
                    prior: PotentialPath | None = None) -> PotentialPath:
    """Potential of an environment slice.

    The slice provides omegas on sites [lo, hi]; the potential lives on
    [lo-1, hi] with V(x) - V(x-1) = log rho_x.  A window that holds site 0
    is summed outward from V(0) = 0, so V(x) does not depend on its edges;
    any other window is summed rightward from V = 0 at its left edge.

    ``prior``, a path that the slice meets at either end, is continued
    instead: on the right (lo - 1 = prior.last_site) from prior's last
    value, and on the left (hi = prior.offset), which only a prior holding
    site 0 allows, from its first.  prior.joined(result) equals the
    potential of the union of the two slices bit for bit.  The result
    holds only the new sites and prior's value at the end it meets.  On
    the right the new sites go into prior's spare room when they fit, and
    the result is a view of it that prior.joined takes over uncopied.  A
    new path gets room to double.
    """
    omegas = np.asarray(env.omegas, dtype=np.float64)
    if omegas.size == 0:
        raise ValueError("empty environment slice")
    offset = env.offset - 1
    last = offset + omegas.size
    if prior is None:
        pivot, seed = (-offset if offset <= 0 <= last else 0), 0.0
    elif prior.last_site == offset and not prior.last_site < 0 <= last:
        pivot, seed = 0, prior.v[-1]
        new = prior.room.claim(prior.v, omegas.size) if prior.room is not None else None
        if new is not None:         # V(x) = V(x-1) + log rho_x, summed on from prior's end
            _log_rho(omegas, new)
            new[0] += seed
            np.cumsum(new, out=new)
            return PotentialPath(offset=offset, v=prior.room.data[len(prior) - 1:][:new.size + 1])
    elif prior.offset == last and prior.offset <= 0 <= prior.last_site:
        pivot, seed = omegas.size, prior.v[0]
    else:
        raise ValueError(f"sites [{env.offset}, {last}] do not continue the path on "
                         f"[{prior.offset}, {prior.last_site}]: a slice meets one end, a path "
                         "left of site 0 may not reach it, only one holding it grows left")
    room = _Room(omegas.size + 1, np.float64) if prior is None else None
    v = np.empty(omegas.size + 1) if room is None else room.data[:room.size]
    # left of the pivot v[k] takes log rho at site offset + k + 1, right of it at offset + k
    _log_rho(omegas[:pivot], v[:pivot])
    _log_rho(omegas[pivot:], v[pivot + 1:])
    left = v[pivot::-1]             # V(x) = V(x+1) - log rho_{x+1}: sum -V outward, negate
    left[0] = -seed
    np.cumsum(left, out=left)
    np.negative(left, out=left)
    np.cumsum(v[pivot:], out=v[pivot:])
    return PotentialPath(offset=offset, v=v, room=room)


def _log_rho(omegas: np.ndarray, out: np.ndarray) -> None:
    """log rho = log((1 - omega) / omega) into out."""
    np.negative(omegas, out=out)
    np.log1p(out, out=out)
    out -= np.log(omegas)


def _origin_index(path: PotentialPath) -> int:
    idx = -path.offset
    if not 0 <= idx < len(path.v):
        raise ValueError("path window does not contain site 0")
    return idx


def ladder_epochs(path: PotentialPath) -> np.ndarray:
    """Weak descending ladder epochs e_0 = 0, e_i = inf{k > e_{i-1}:
    V(k) <= V(e_{i-1})}, as absolute sites, truncated at the window end."""
    steps = _ladder_steps(path, 0)
    epochs = np.empty(steps.size + 1, dtype=np.int64)
    epochs[0] = 0
    np.add(steps, 1, out=epochs[1:])
    return epochs


def _ladder_steps(path: PotentialPath, epoch: int) -> np.ndarray:
    """The ladder epochs after a known epoch, less epoch + 1.  V at an
    epoch is the running minimum of the whole path so far, so the later
    epochs need only the sites from it on."""
    v = path.v[_origin_index(path) + epoch:]
    # k >= 1 is a ladder epoch iff V(k) <= min over [0, k-1]
    return np.flatnonzero(v[1:] <= np.minimum.accumulate(v)[:-1])


@dataclass(frozen=True)
class ExcursionTable:
    """Columnar view of the complete excursions: one row per consecutive
    pair of the ladder epochs e_0, e_1, ... (absolute sites), and the
    height max over [start, end] of V - V(start).  Both arrays are views
    of arrays with spare room (``rooms``) that a continuation fills."""

    epochs: np.ndarray
    heights: np.ndarray
    rooms: tuple[_Room, _Room] | None = field(default=None, repr=False, compare=False)

    @property
    def starts(self) -> np.ndarray:
        return self.epochs[:-1]

    @property
    def ends(self) -> np.ndarray:
        return self.epochs[1:]

    def __iter__(self):
        return iter((self.starts, self.ends, self.heights))


def excursion_table(path: PotentialPath,
                    prior: ExcursionTable | None = None) -> ExcursionTable:
    """Vectorized excursion scan.  Million-site windows hold hundreds of
    thousands of excursions, so the scans below work on these arrays.

    ``prior``, the table of a path that this one extends on either side,
    is continued: only the sites from its last complete excursion's end
    on are scanned, and the result is its rows followed by the new ones,
    equal to a scan of the whole path.  The new rows go into prior's
    spare room when they fit, so prior's rows are not copied and the
    result's arrays are longer views of prior's; otherwise all rows are
    copied once into new arrays with room to double."""
    rows = 0 if prior is None else prior.heights.size
    start = 0 if prior is None else int(prior.epochs[-1])
    steps = _ladder_steps(path, start)
    new = steps.size
    rooms = None if prior is None else prior.rooms
    # heights first: when they fit, so do the epochs, one entry longer
    fresh = rooms is None or rooms[1].claim(prior.heights, new) is None \
        or rooms[0].claim(prior.epochs, new) is None
    if fresh:
        rooms = (_Room(rows + 1 + new, np.int64), _Room(rows + new, np.float64))
        rooms[0].data[:rows + 1] = 0 if prior is None else prior.epochs
        rooms[1].data[:rows] = 0.0 if prior is None else prior.heights
    epochs = rooms[0].data[:rows + 1 + new]
    heights = rooms[1].data[:rows + new]
    np.add(steps, start + 1, out=epochs[rows + 1:])
    if new:
        i0 = _origin_index(path)
        v = path.v
        starts = epochs[rows:-1] + i0
        # max over [start, end); the endpoint cannot exceed it since
        # V(end) <= V(start) <= the segment max.  The scan stops at the last
        # ladder epoch: sites past it belong to an incomplete excursion and
        # must not leak into the last height.
        # reduceat into an out= view holds the interpreter lock and stalls
        # the census's worker threads, so it returns a new array
        np.subtract(np.maximum.reduceat(v[:epochs[-1] + i0], starts), v[starts],
                    out=heights[rows:])
    return ExcursionTable(epochs=epochs, heights=heights, rooms=rooms)


def first_ascent(path: PotentialPath, h: float) -> int | None:
    """First site x >= 0 with max rise V_up(0, x) >= h, else None."""
    i0 = _origin_index(path)
    hit = _first_rise(path.v, i0, h)
    return None if hit is None else hit - i0


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


_CHUNK = 1024                      # sites in a gallop's first chunk


def _gallop(start: int, stop: int):
    """Slice bounds (lo, hi) of chunks doubling in size outward from index
    start toward index stop, stop excluded: rightward when stop > start,
    leftward (the nearest chunk first) when stop < start."""
    size = _CHUNK
    if stop > start:
        while start < stop:
            yield start, min(start + size, stop)
            start, size = start + size, 2 * size
    else:
        hi = start + 1
        while hi > stop + 1:
            lo = max(hi - size, stop + 1)
            yield lo, hi
            hi, size = lo, 2 * size


def _first_at_most(v: np.ndarray, start: int, level: float) -> int | None:
    """First index k >= start with v[k] <= level, else None."""
    for lo, hi in _gallop(start, len(v)):
        hits = np.flatnonzero(v[lo:hi] <= level)
        if hits.size:
            return lo + int(hits[0])
    return None


def _first_rise(v: np.ndarray, start: int, h: float) -> int | None:
    """First index k >= start with v[k] - min(v[start..k]) >= h, else None.
    The running minimum carries from one chunk into the next."""
    low = v[start]
    for lo, hi in _gallop(start, len(v)):
        seg = v[lo:hi]
        runmin = np.minimum(np.minimum.accumulate(seg), low)
        hits = np.flatnonzero(seg - runmin >= h)
        if hits.size:
            return lo + int(hits[0])
        low = runmin[-1]
    return None


def _backing_site(path: PotentialPath, b: int, D_n: float, what: str) -> int:
    """a: the last site at or before b with V(a) - V(b) >= D_n."""
    bi = path.index(b)
    level = path.v[bi] + D_n
    for lo, hi in _gallop(bi, -1):
        back = np.flatnonzero(path.v[lo:hi] >= level)
        if back.size:
            return path.offset + lo + int(back[-1])
    raise WindowExhausted("left", what)


def _summit_site(path: PotentialPath, b: int, d_bar: int) -> int:
    """c: the first argmax of V over [b, d_bar]."""
    return b + int(np.argmax(path.slice_values(b, d_bar)))


def _descent_site(path: PotentialPath, d_bar: int, D_n: float, what: str) -> int:
    """d: the first site at or after d_bar with V(d) - V(d_bar) <= -D_n."""
    dbi = path.index(d_bar)
    d = _first_at_most(path.v, dbi, path.v[dbi] - D_n)
    if d is None:
        raise WindowExhausted("right", what)
    return path.offset + d


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
                        table: ExcursionTable | None = None) -> list[StarValley]:
    """First-passage valley scan, iterated by shifting the origin to the
    previous valley's d; keeps valleys with t_star <= e_n.  ``table``
    reuses an excursion scan already done on this path."""
    _check_valley_params(n, epsilon)
    h_n = critical_height(n, epsilon, kappa)
    D_n = descent_threshold(n, kappa)
    e_n = int(_first_excursions(path, n, table).ends[n - 1])
    i0 = _origin_index(path)
    v = path.v
    out: list[StarValley] = []
    origin = 0  # shift anchor (site); first block starts at the origin
    while True:
        oi = origin + i0
        # gamma: first k >= origin with V(k) - V(origin) <= -D_n
        gi = _first_at_most(v, oi, v[oi] - D_n)
        if gi is None:
            # no further D_n-descent in the window; the construction would
            # need more path, but any remaining valley has t_star beyond
            # whatever the window holds, so stop only if we are past e_n
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley gamma")
        gamma = gi - i0
        # t_star: first k >= gamma with V_up(gamma, k) >= h_n
        ti = _first_rise(v, gi, h_n)
        if ti is None:
            if path.last_site >= e_n:
                break
            raise WindowExhausted("right", "star-valley t_star")
        t_star = ti - i0
        if t_star > e_n:
            break
        # b: LAST argmin of V over [origin, t_star]
        seg = v[oi : ti + 1]
        vmin = np.min(seg)
        b = origin + int(np.flatnonzero(seg == vmin)[-1])
        a = _backing_site(path, b, D_n, "star-valley a")
        # d_bar: first k >= t_star with V(k) <= V(b)
        di = _first_at_most(v, ti, v[b + i0])
        if di is None:
            raise WindowExhausted("right", "star-valley d_bar")
        d_bar = di - i0
        c = _summit_site(path, b, d_bar)
        d = _descent_site(path, d_bar, D_n, "star-valley d")
        out.append(StarValley(gamma=gamma, a=a, b=b, t_star=t_star, c=c,
                              d_bar=d_bar, d=d))
        origin = d
    return out


def check_good_environment(path: PotentialPath, n: int, epsilon: float, delta: float,
                           Cprime: float, Cdoubleprime: float, kappa: float,
                           q_hat: float | None = None,
                           table: ExcursionTable | None = None,
                           kappa_fallback: bool = False) -> GoodEnvironmentRecord:
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
        <= delta log n.

    A4 and A5 need the first deep valley past e_n, and a window that holds
    none raises WindowExhausted on the right, so no record depends on how
    far the window reaches.  With ``kappa_fallback`` the law has no kappa
    in (0,1) and kappa is only a unit height scale: V never rises, or the
    walk is ballistic and P{H >= h_n} falls like n^{-0.8 kappa_true}, so
    no window of a few E[len] n holds a deep valley past e_n.  A4 and A5
    then range over the K_n valleys among the first n excursions only,
    and hold vacuously when K_n = 0.

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

    # valleys 1..K_n+1, the last one the first deep excursion past n (1..K_n
    # with kappa_fallback)
    a4 = True
    a5 = True
    valley_indices = list(deep_first_n)
    if not kappa_fallback:
        later = deep_all[deep_all > n]
        if not later.size:
            raise WindowExhausted(
                "right", "the first deep valley past e_n (A4 needs K_n + 1 valleys)")
        valley_indices.append(int(later[0]))
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

