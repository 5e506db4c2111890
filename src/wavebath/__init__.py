"""Lossless loads coupled to wave and lattice heat baths.

Subpackage map:

* ratfun      -- real polynomials / rational functions, inner + lossless
                 predicates, spectral factorization
* realization -- partial-fraction (Foster) impedance forms and their
                 skew-symmetric state-space realizations
* coupling    -- closing the wave boundary: feedback pair, scattering,
                 observable transfer functions, inverse synthesis
* waveline    -- semi-infinite line simulator with a lossless load at
                 the origin, boundary traces, reduced models
* lattice     -- harmonic chain bath: exact mode propagation, Gibbs
                 sampling, distinguished-particle traces
* statmech    -- Maxwell-Boltzmann statistics, series estimators,
                 periodicity probe
* cli         -- command-line front end over all of the above

Importing the package loads none of them, and re-exports nothing:
import the module you use (`from wavebath.ratfun import Polynomial`),
so that a command pays only for what it runs.
"""

__version__ = "0.1.0"
