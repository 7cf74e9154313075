"""Every functools cache in torsionkit is bounded, apart from per-modulus tables.

An ``lru_cache(maxsize=None)`` keyed on complexes, representations or lens
parameters grows for the life of the process: a lens sweep kept one class
per (p, q, d) it ever read.  A table keyed on the modulus (and an exponent
below it) holds at most a few entries per modulus the CLI allows, so it may
stay unbounded; those tables are listed here by name.
"""
import importlib
import pkgutil

import torsionkit

PER_MODULUS = {
    "cyclofield.cyclotomic_polynomial",
    "cyclofield.euler_phi",
    "cyclofield._zeta_power_row",
    "cyclofield.units",
}


def _caches() -> dict:
    """module.name -> the functools cache defined under that name."""
    found = {}
    for info in pkgutil.iter_modules(torsionkit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"torsionkit.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def test_every_cache_is_bounded():
    caches = _caches()
    unbounded = sorted(
        name for name, fn in caches.items() if fn.cache_info().maxsize is None
    )
    assert [name for name in unbounded if name not in PER_MODULUS] == []
    assert PER_MODULUS <= set(caches)  # the exemptions name existing caches
