"""numpy, imported when the program first uses one of its names.

Only simulation draws on numpy, so ``scenarios``, ``assess --capacity``,
``--version`` and input errors run without paying its import.
"""

import importlib.util
import sys


def lazy_numpy():
    """``sys.modules["numpy"]`` if already imported, else a module that loads
    numpy at its first attribute access (the ``importlib.util.LazyLoader``
    recipe)."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = lazy_numpy()
