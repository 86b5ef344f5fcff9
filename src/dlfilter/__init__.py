"""Dynamic likelihood filtering for 1-D stochastic advection.

Exact truth generators, a stochastic Lax-Friedrichs model, sparse synthetic
observation networks, a reference Kalman filter, the dynamic likelihood
filter, and a reproducible experiment harness.
"""

__version__ = "0.1.0"
