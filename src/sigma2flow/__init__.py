"""Radial sigma_2-curvature toolkit: symmetric-function algebra, 1-d
discretization, conformal energies, the normalized descent flow, and the
glued comparison-metric construction, with a CLI (`sigma2`) on top.

Numerics run on numpy, the only dependency.  Each public name is imported
from its module (``from sigma2flow.flow import flow_run``) and listed in that
module's ``__all__``; importing the package loads neither numpy nor any of
its modules.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
