"""Hot kernels: braid coloring enumeration and coset enumeration.

Coset enumeration has one implementation, the pure-Python HLT with
deductions in _purepy.  Coloring enumeration has two interchangeable
backends: _speedups is a compiled Cython module and _purepy a numpy twin
with identical semantics, including result ordering.  The compiled backend
is selected at import when available; set QUANDLEFORGE_PURE=1 to force the
fallback.  The benchmark in benchmarks/bench_kernels.py compares the two.
"""

import os

from . import _purepy

if os.environ.get("QUANDLEFORGE_PURE"):
    _impl = _purepy
else:
    try:
        from . import _speedups as _impl
    except ImportError:
        _impl = _purepy

BACKEND = "pure" if _impl is _purepy else "compiled"

braid_closure_colorings = _impl.braid_closure_colorings
coset_enumeration = _purepy.coset_enumeration


def available_backends():
    out = {"pure": _purepy}
    try:
        from . import _speedups
        out["compiled"] = _speedups
    except ImportError:
        pass
    return out
