"""The package's public API is the union of its modules' ``__all__``."""

from collections import Counter

import dyadsim
from dyadsim import cli, dynamics, metrics, report, stats, sweep

MODULES = (dynamics, metrics, sweep, stats, report)


def test_package_all_is_each_module_all_in_order():
    listed = [name for module in MODULES for name in module.__all__]
    assert dyadsim.__all__ == [*listed, "__version__"]


def test_every_listed_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dyadsim, name) is getattr(module, name), name
    assert isinstance(dyadsim.__version__, str)


def test_no_name_is_exported_by_two_modules():
    counts = Counter(name for module in (*MODULES, cli) for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
    assert set(cli.__all__).isdisjoint(dyadsim.__all__)
