"""Exact verification engine for etale covers trivialising the syzygy
bundle Syz(u^2, v^2, w^2)(3) on Fermat curves in odd characteristic.

`import syzcover` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a caller compiles only what it runs.
"""

__version__ = "0.1.2"

# exported name -> the submodule that defines it
_EXPORTS = {
    "build_catalog": "syz",
    "component_stats": "census",
    "CoverReport": "report",
    "emit_report": "report",
    "enumerate_fiber": "census",
    "make_extension_field": "gf",
    "run_verification": "report",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
