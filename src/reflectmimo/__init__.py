"""Reflection-model toolkit for multipath MIMO channels.

Specular reflections off planar surfaces admit an exact wideband channel
parametrization: each path is a mirror map (orthogonal matrix plus offset)
applied to the transmitter, so the path length at *any* pair of antenna
positions follows from a handful of parameters measured at one reference
pair.  This package implements that parametrization, two ways of estimating
it (from traced routes and from displaced-pair measurements), the classical
plane-wave approximation it replaces, an image-method ray tracer to generate
ground truth, and the MIMO channel/capacity pipeline used to compare them.

The package root re-exports the ``__all__`` list of each of the eight
pipeline modules, so a public name is declared once, in its own module.
"""

from . import capacity, channel, experiments, fit_dp, fit_rt, geometry, paths, tracer
from .capacity import *
from .channel import *
from .experiments import *
from .fit_dp import *
from .fit_rt import *
from .geometry import *
from .paths import *
from .tracer import *

__all__ = (
    capacity.__all__ + channel.__all__ + experiments.__all__ + fit_dp.__all__
    + fit_rt.__all__ + geometry.__all__ + paths.__all__ + tracer.__all__
)

__version__ = "0.1.0"
