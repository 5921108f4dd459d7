"""Component and cycle statistics of random mappings without fixed points.

The model: n players each pick someone else's feet to stare at, giving a
uniform random function f with f(i) != i.  The package computes the exact
laws of its functional graph (component sizes, core size, cycle lengths,
screaming pairs), samples it by three independent Monte Carlo routes, and
reproduces the reference tables with exact/simulated/brute-force
cross-validation.
"""

__version__ = "0.1.0"
