"""consdyn: consensus dynamics under switching averaging maps.

Profiles of n agents in R^d are summarized by generalized hulls (convex,
interval, or direction polytopes); an update map is averaging when it maps
each hull into itself and proper when the inclusion is strict.  The package
ships the hull geometry, a library of concrete update maps, numeric
certification of averaging / properness / equiproperness, stochastic matrix
analysis, a switching-sequence simulator with hull monitoring, and a
bearing-only rendezvous protocol, all reachable from the `consdyn` CLI.
The library API is imported from these submodules.
"""

from . import certify, geometry, maps, rendezvous, scenarios, simulate

__version__ = "0.1.0"
