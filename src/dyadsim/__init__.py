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
A name is imported on first use (PEP 562), so that a command loads only
the modules it runs.
"""

__version__ = "0.1.0"


def _submodule(name):
    # builtins.__import__, unlike importlib.import_module, is timed by -X importtime
    __import__(f"{__name__}.{name}")  # binds the submodule in this module's globals
    return globals()[name]


def __getattr__(name):
    """A submodule, or the public name of the first of the re-exported modules
    whose ``__all__`` lists it, imported on first use and then cached."""
    names = ("dynamics", "metrics", "sweep", "stats", "report")  # the __all__ order
    if name in names or name == "cli":
        return _submodule(name)
    modules = map(_submodule, names)
    if name == "__all__":
        value = [*(listed for module in modules for listed in module.__all__), "__version__"]
    else:
        module = next((module for module in modules if name in module.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
