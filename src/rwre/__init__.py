"""Transient zero-speed random walks in i.i.d. random environments.

The package splits along the objects of the theory:

* env        environment laws, kappa, the log-moment generating function;
* potential  the potential landscape: ladder epochs, excursions, deep and
             star valleys, good-environment events;
* quenched   fixed-environment chains: exit probabilities, h-transforms,
             crossing-attempt moments, exact solvers, hitting-time
             sampling by the branching cascade;
* constants  the explicit limit-law constants and their Monte Carlo
             estimators;
* stable     positive stable sampling and the exact CDF;
* experiments  the end-to-end Monte Carlo harness and report emission;
* cli        the ``rwre`` command line over the harness;
* rng        stream keys and keyed PCG64 generators behind all of the above.

Special functions (digamma, log-beta, logsumexp) come from scipy.special.

Names are imported from their modules; the package namespace holds only
``__version__``, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
