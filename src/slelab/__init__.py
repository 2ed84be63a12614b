"""Whole-plane SLE laboratory.

Monte Carlo simulation of the reverse radial Loewner flow, closed-form
mixed moments on the integrability parabola, logarithmic coefficient
statistics, the exact four-region generalized integral-means spectrum
with its phase diagram, and Cauchy-integral residual verification of
every closed form the package relies on.
"""

from .flow import *
from .moments import *
from .spectrum import *
from .residuals import *

__version__ = "0.1.0"
