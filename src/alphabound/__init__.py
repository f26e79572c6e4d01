"""alphabound: independence numbers near the counting bound.

For a graph with n vertices and m edges, let p be the largest integer with
p(p-1) <= n^2 - n - 2m; the independence number alpha never exceeds p.
This package decides "alpha <= p - k?" for small k: cheap degree-based
bounds first, then a linear-size low-degree kernel, then a bounded
branching search for a vertex cover of the kernel.  Exact brute-force
oracles, graph generators, tight-instance (extremal) tooling, and a JSON
CLI round it out.

Entry points: :func:`decide` for the full pipeline, :func:`bounds_report`
for the bound chain, :func:`kernelize` for the kernel alone, and the
``alphabound`` console script.
"""

from . import (bounds, errors, extremal, formats, graph, kernel, oracle, pipeline,
               vertex_cover)
from .graph import *
from .bounds import *
from .kernel import *
from .vertex_cover import *
from .oracle import *
from .pipeline import *
from .extremal import *
from .formats import *
from .errors import *

__version__ = "0.1.0"

# Each module's __all__ is the one statement of its public names.
__all__ = ["__version__"]
__all__ += graph.__all__
__all__ += bounds.__all__
__all__ += kernel.__all__
__all__ += vertex_cover.__all__
__all__ += oracle.__all__
__all__ += pipeline.__all__
__all__ += extremal.__all__
__all__ += formats.__all__
__all__ += errors.__all__
