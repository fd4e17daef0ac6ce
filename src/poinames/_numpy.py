"""numpy, executed on first use.

``from ._numpy import np`` gives the numpy module. If numpy is already
imported, that module is returned as it is. Otherwise numpy is registered
in ``sys.modules`` through ``importlib.util.LazyLoader``, and its code runs
when an attribute of ``np`` is first read. The modules that import ``np``
use it only inside function bodies and string annotations, so importing
them costs nothing, and the CLI stages that never call numpy (ingest, zipf,
local-terms, type-usage) start without it.

Before Python 3.12 the lazy load takes no lock, so two threads that first
read ``np`` at once may see a half-run numpy; threaded callers import numpy
before poinames.
"""

from __future__ import annotations

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)


def load_numpy() -> None:
    """Run numpy's import now, if it has not run yet.

    A stage that uses numpy calls this first, so the import is paid by the
    stage itself and not by whichever library call first reads ``np``. If
    the import fails, the half-run module is taken out of ``sys.modules``,
    so a later ``import numpy`` raises the same error again.
    """
    try:
        np.ndarray  # noqa: B018 -- reading any attribute executes a lazy module
    except BaseException:
        if sys.modules.get("numpy") is np:
            del sys.modules["numpy"]
        raise
