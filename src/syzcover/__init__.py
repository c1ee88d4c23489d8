"""Exact verification engine for etale covers trivialising the syzygy
bundle Syz(u^2, v^2, w^2)(3) on Fermat curves in odd characteristic."""

__version__ = "0.1.0"

from .census import component_stats, enumerate_fiber
from .gf import make_extension_field
from .report import CoverReport, emit_report, run_verification
from .syz import build_catalog

__all__ = [
    "__version__",
    "build_catalog",
    "component_stats",
    "CoverReport",
    "emit_report",
    "enumerate_fiber",
    "make_extension_field",
    "run_verification",
]
