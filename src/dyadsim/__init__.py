"""Two-agent coupled-dynamics simulator and coordination-analysis toolkit.

A dyadic interaction is driven by a 2x2 ternary context matrix that couples
two scalar behavior series through a linear update with uniform noise and a
decay term.  The package sweeps the full ternary context space with seeded,
reproducible batches, classifies each run's behavior correlation into
synchrony/complementarity tails, and reports dummy-coded regression models,
chi-square tests, cross-correlation functions, and turn-taking lag
distributions.

Each module's ``__all__`` is its public API, and the package re-exports
those of ``dynamics``, ``metrics``, ``sweep``, ``stats`` and ``report``.
"""

__version__ = "0.1.0"  # set before the submodules, which read it

from dyadsim import dynamics, metrics, report, stats, sweep
from dyadsim.dynamics import *  # noqa: F401,F403
from dyadsim.metrics import *  # noqa: F401,F403
from dyadsim.sweep import *  # noqa: F401,F403
from dyadsim.stats import *  # noqa: F401,F403
from dyadsim.report import *  # noqa: F401,F403

__all__ = [*dynamics.__all__, *metrics.__all__, *sweep.__all__, *stats.__all__,
           *report.__all__, "__version__"]
