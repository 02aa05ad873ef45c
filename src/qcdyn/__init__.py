"""Numerical toolkit for the non-conformal degree-two maps r^{2a} e^{2it} + c.

The submodules are the API; import each name from its module, e.g.
``from qcdyn.render import render_julia``.  Each module's ``__all__`` lists
its public names: maps (evaluation, derivatives, metrics), render
(escape-time and attractor rasters), fixed_points (the parameter map,
bifurcation curves and cusps), jets (degree-3 jet algebra and Hopf numbers),
orbits (critical and periodic orbits, leaf pullbacks), errors (the exception
types).  cli is the batch command-line front end.  Importing this package
loads no submodule, so ``import qcdyn.maps`` loads no numpy.
"""

__version__ = "0.1.0"
