"""Environment laws for the 1D random walk in random environment.

An environment is an i.i.d. family (omega_i) of transition probabilities in
(0,1); the walk at site i steps right with probability omega_i.  The
quantity that controls everything downstream is rho = (1-omega)/omega and
its log-moment function Lambda(t) = log E[rho^t].  The transient zero-speed
regime is characterized by E[log rho] < 0 together with a root kappa in
(0,1) of E[rho^kappa] = 1.

Two law families are supported, matching the text grammar used by the CLI:

* ``beta:A,B``      omega ~ Beta(A, B).  Then E[rho^t] = B(A-t, B+t)/B(A, B)
                    for t < A, and kappa = A - B in closed form when
                    0 < A - B < 1.
* ``discrete:w1@p1;w2@p2;...``  finite support {w_k} with probabilities
                    {p_k}; all moments are exact finite sums.

Environment sampling is keyed by site block: site i of law+seed always
receives the same omega regardless of which window is materialized.
Every law draws each touched block of _SITE_BLOCK sites whole through
draw_omegas, on a generator keyed by the block (see rng).

draw_omegas, and the per-replica samplers draw_rho and draw_log_rho,
dispatch on one rule: Beta(A, 1) and discrete laws invert the CDF on
generator uniforms, other Beta laws use the generator's beta sampler.
draw_rho skips omega where it can: rho = V^(-1/A) - 1 for Beta(A, 1), a
per-atom table for discrete laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma, logsumexp

from . import rng

__all__ = [
    "EnvironmentLaw",
    "EnvironmentSlice",
    "KappaResult",
    "RegimeError",
    "NoRootError",
    "sample_environment",
    "draw_omegas",
    "draw_rho",
    "draw_log_rho",
    "rho",
    "lambda_fn",
    "kappa_solve",
    "moment_rho_log",
]

_EDGE = 1e-6
_BISECT_ITERS = 200
_SITE_BLOCK = 4096  # sites per stream block when sampling environments
_OMEGA_CLIP = (1e-300, 1.0 - 1e-16)  # keeps generator draws off 0 and 1
_RHO_CLIP = tuple((1.0 - om) / om for om in reversed(_OMEGA_CLIP))  # rho over _OMEGA_CLIP


class RegimeError(ValueError):
    """The law is outside the transient zero-speed regime."""


class NoRootError(RegimeError):
    """E[rho^t] = 1 has no root in (0,1): ballistic or recurrent regime."""


@dataclass(frozen=True)
class EnvironmentLaw:
    kind: str                      # "beta" | "discrete"
    alpha: float = 0.0
    beta: float = 0.0
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()

    @staticmethod
    def beta_law(alpha: float, beta: float) -> "EnvironmentLaw":
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"beta law needs positive parameters, got {alpha}, {beta}")
        return EnvironmentLaw(kind="beta", alpha=float(alpha), beta=float(beta))

    @staticmethod
    def discrete(values, probs) -> "EnvironmentLaw":
        values = tuple(float(v) for v in values)
        probs = tuple(float(p) for p in probs)
        if len(values) != len(probs) or not values:
            raise ValueError("discrete law needs matching nonempty values/probs")
        if any(not (0.0 < v < 1.0) for v in values):
            raise ValueError("discrete omega values must lie strictly in (0,1)")
        if any(p <= 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("discrete probabilities must be positive and sum to 1")
        return EnvironmentLaw(kind="discrete", values=values, probs=probs)

    @staticmethod
    def parse(text: str) -> "EnvironmentLaw":
        """Parse ``beta:A,B`` or ``discrete:w1@p1;w2@p2;...``."""
        text = text.strip()
        if ":" not in text:
            raise ValueError(f"law spec needs kind:params, got {text!r}")
        kind, _, body = text.partition(":")
        kind = kind.strip().lower()
        if kind == "beta":
            parts = body.split(",")
            if len(parts) != 2:
                raise ValueError(f"beta law needs two parameters, got {body!r}")
            return EnvironmentLaw.beta_law(float(parts[0]), float(parts[1]))
        if kind == "discrete":
            values, probs = [], []
            for atom in body.split(";"):
                atom = atom.strip()
                if not atom:
                    continue
                w, _, p = atom.partition("@")
                values.append(float(w))
                probs.append(float(p))
            return EnvironmentLaw.discrete(values, probs)
        raise ValueError(f"unknown law kind {kind!r}")

    def spec_text(self) -> str:
        """The law as ``parse`` reads it back, digit for digit."""
        if self.kind == "beta":
            return f"beta:{_spec_number(self.alpha)},{_spec_number(self.beta)}"
        atoms = ";".join(f"{_spec_number(v)}@{_spec_number(p)}"
                         for v, p in zip(self.values, self.probs))
        return f"discrete:{atoms}"


def _spec_number(value: float) -> str:
    """%g when it reads back exactly, else the full repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


@dataclass(frozen=True)
class EnvironmentSlice:
    offset: int                    # site index of omegas[0]
    omegas: np.ndarray             # strictly inside (0,1)

    def site(self, i: int) -> float:
        return float(self.omegas[self.index(i)])

    def index(self, i: int) -> int:
        """Position of site i in omegas; IndexError outside the slice."""
        k = i - self.offset
        if not 0 <= k < len(self.omegas):
            raise IndexError(f"site {i} outside [{self.offset}, "
                             f"{self.offset + len(self.omegas) - 1}]")
        return k


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    residual: float
    method: str                    # closed_form | bisection_quadrature


def rho(omega: float) -> float:
    """rho = (1-omega)/omega for omega strictly inside (0,1)."""
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie strictly in (0,1), got {omega}")
    return (1.0 - omega) / omega


def _atom_index(law: EnvironmentLaw, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a discrete law: the atom each uniform selects, the
    number of cumulative edges strictly below u, capped at the last atom.
    Counting over the first K-1 edges gives the cap for free, and K-1
    comparisons beat a binary search for the few atoms a law has."""
    edges = np.cumsum(np.asarray(law.probs))
    idx = np.zeros(np.shape(u), dtype=np.intp)
    for edge in edges[:-1]:
        idx += u > edge
    return idx


def _by_cdf(law: EnvironmentLaw) -> bool:
    """Whether the law's omegas come from a closed-form inverse CDF:
    discrete laws, and Beta(a,1), whose CDF is x^a."""
    return law.kind == "discrete" or law.beta == 1.0


def _law_uniform_to_omega(law: EnvironmentLaw, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a law that _by_cdf admits."""
    if law.kind == "beta":
        return u ** (1.0 / law.alpha)
    return np.asarray(law.values)[_atom_index(law, u)]


def draw_omegas(law: EnvironmentLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """size i.i.d. omegas from a generator, for the site blocks of
    sample_environment and for samplers that draw a fresh environment per
    replica.  Laws that _by_cdf admits invert generator uniforms; other
    Beta laws use the generator's own beta sampler.  Draws are clipped
    into _OMEGA_CLIP."""
    if _by_cdf(law):
        om = _law_uniform_to_omega(law, rng.random(size))
    else:
        om = rng.beta(law.alpha, law.beta, size)
    return np.clip(om, _OMEGA_CLIP[0], _OMEGA_CLIP[1])


def _clipped_atoms(law: EnvironmentLaw) -> np.ndarray:
    return np.clip(law.values, _OMEGA_CLIP[0], _OMEGA_CLIP[1])


def draw_rho(law: EnvironmentLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """size i.i.d. draws of rho = (1-omega)/omega, dispatched as draw_omegas.

    Beta(a,1): omega = V^(1/a) for V uniform, so rho = V^(-1/a) - 1, with
    V = 1 - rng.random() in [2^-53, 1] so that rho stays finite; it is
    clipped into the range _OMEGA_CLIP gives.  The law is that of
    draw_omegas, not the values.  Discrete laws read a per-atom table,
    value for value those of draw_omegas; other Beta laws take
    (1-omega)/omega of draw_omegas.
    """
    if not _by_cdf(law):
        om = draw_omegas(law, rng, size)
        return (1.0 - om) / om
    if law.kind == "discrete":
        atoms = _clipped_atoms(law)
        return ((1.0 - atoms) / atoms)[_atom_index(law, rng.random(size))]
    rho = rng.random(size)
    np.subtract(1.0, rho, out=rho)
    np.power(rho, -1.0 / law.alpha, out=rho)
    rho -= 1.0
    return np.clip(rho, _RHO_CLIP[0], _RHO_CLIP[1], out=rho)


def draw_log_rho(law: EnvironmentLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """log rho of draw_omegas(law, rng, size), value for value.  Discrete
    laws read a per-atom table instead of taking two logarithms a draw."""
    if law.kind == "beta":
        om = draw_omegas(law, rng, size)
        return np.log1p(-om) - np.log(om)
    atoms = _clipped_atoms(law)
    return (np.log1p(-atoms) - np.log(atoms))[_atom_index(law, rng.random(size))]


def sample_environment(law: EnvironmentLaw, site_range: tuple[int, int], seed: int) -> EnvironmentSlice:
    """i.i.d. omegas on the inclusive site range [lo, hi].

    Site i belongs to block i // _SITE_BLOCK, whose stream is (seed,
    "env", block).  Each touched block is drawn whole by draw_omegas on a
    generator keyed by that stream, and the slice the range covers is
    kept, so identical (law, range, seed) gives bit-identical output and
    overlapping ranges agree site by site.
    """
    lo, hi = int(site_range[0]), int(site_range[1])
    if lo > hi:
        raise ValueError(f"empty site range [{lo}, {hi}]")
    omegas = np.empty(hi - lo + 1, dtype=np.float64)
    # the range is contiguous, so each block contributes one slice;
    # floor division keeps the block map right for negative sites
    pos = 0
    for blk in range(lo // _SITE_BLOCK, hi // _SITE_BLOCK + 1):
        base = blk * _SITE_BLOCK
        start, stop = max(lo, base) - base, min(hi, base + _SITE_BLOCK - 1) - base + 1
        block = draw_omegas(law, rng.generator(rng.stream_key(seed, "env", blk)), _SITE_BLOCK)
        omegas[pos : pos + stop - start] = block[start:stop]
        pos += stop - start
    return EnvironmentSlice(offset=lo, omegas=omegas)


def _lambda_discrete(law: EnvironmentLaw, t: float) -> float:
    log_rhos = np.log([rho(v) for v in law.values])
    return float(logsumexp(np.log(law.probs) + t * log_rhos))


def lambda_fn(law: EnvironmentLaw, t: float) -> float:
    """Lambda(t) = log E[rho^t]; finite for t < alpha on Beta laws."""
    if t < 0:
        raise ValueError(f"lambda_fn needs t >= 0, got {t}")
    if law.kind == "beta":
        if t >= law.alpha:
            raise ValueError(
                f"E[rho^t] diverges for t >= alpha ({t} >= {law.alpha})"
            )
        return float(betaln(law.alpha - t, law.beta + t) - betaln(law.alpha, law.beta))
    return _lambda_discrete(law, t)


def _lambda_sup(law: EnvironmentLaw) -> float:
    """Supremum of t with Lambda(t) finite (inf for discrete laws)."""
    return law.alpha if law.kind == "beta" else math.inf


def mean_log_rho(law: EnvironmentLaw) -> float:
    """E[log rho]; the walk is transient to +inf iff this is negative."""
    if law.kind == "beta":
        return float(digamma(law.beta) - digamma(law.alpha))
    lr = [math.log(rho(v)) for v in law.values]
    return float(sum(p * x for p, x in zip(law.probs, lr)))


def kappa_solve(law: EnvironmentLaw, tol: float = 1e-12,
                method: str | None = None) -> KappaResult:
    """Root of E[rho^kappa] = 1 in (0,1).

    Beta laws with 0 < alpha-beta < 1 use the closed form kappa =
    alpha-beta; otherwise convex bisection on lambda_fn (method
    "bisection_quadrature", since Lambda is evaluated exactly, by
    log-beta functions or by sums over the atoms).  Raises NoRootError
    outside the transient zero-speed regime.
    """
    if mean_log_rho(law) >= 0:
        raise NoRootError(
            f"E[log rho] = {mean_log_rho(law):.6g} >= 0: not transient to +inf"
        )
    if method is None:
        method = "closed_form" if law.kind == "beta" else "bisection_quadrature"
    if method == "closed_form":
        if law.kind != "beta":
            raise ValueError("closed_form kappa is only available for beta laws")
        kappa = law.alpha - law.beta
        if not 0.0 < kappa < 1.0:
            raise NoRootError(
                f"alpha-beta = {kappa:.6g} outside (0,1): no zero-speed root"
            )
        return KappaResult(kappa=kappa, residual=abs(lambda_fn(law, kappa)), method=method)

    if method != "bisection_quadrature":
        raise ValueError(f"unknown kappa method {method!r}")
    fn = lambda t: lambda_fn(law, t)

    lo = _EDGE
    hi = min(1.0 - _EDGE, _lambda_sup(law) - _EDGE)
    if hi <= lo:
        raise NoRootError("no admissible bracket below min(1, sup finite t)")
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo >= 0 or f_hi <= 0:
        # Lambda starts negative (Lambda'(0) = E[log rho] < 0); if it never
        # comes back up before the bracket end there is no root in (0,1).
        raise NoRootError(
            f"Lambda has no sign change on [{lo:.2g}, {hi:.4g}]: "
            f"Lambda({lo:.2g})={f_lo:.3g}, Lambda({hi:.4g})={f_hi:.3g}"
        )
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid) <= tol or (hi - lo) < 1e-15:
            return KappaResult(kappa=mid, residual=abs(f_mid), method=method)
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return KappaResult(kappa=mid, residual=abs(fn(mid)), method=method)


def moment_rho_log(law: EnvironmentLaw, kappa: float) -> float:
    """E[rho^kappa log rho] (= Lambda'(kappa), positive at the root)."""
    if law.kind == "beta":
        value = float(digamma(law.alpha) - digamma(law.beta))
    else:
        value = 0.0
        for v, p in zip(law.values, law.probs):
            r = rho(v)
            value += p * r**kappa * math.log(r)
    tiny = all(abs(math.log(rho(v))) < 1e-15 for v in law.values) if law.kind == "discrete" else False
    if value <= 0 and not tiny:
        raise RegimeError(f"E[rho^kappa log rho] = {value:.6g} <= 0: kappa is not the root")
    return value

