"""finforge: desk-scale language-model engineering toolkit.

Byte-level Unigram tokenizer with split-and-merge training, a
vocabulary-size heuristic, a compute-budget scaling planner with exact
parameter accounting, an ALiBi decoder-only transformer with hand-derived
gradients, a deterministic training loop with chronicles-style diagnostics,
and a likelihood-based evaluation harness.
"""

__version__ = "0.1.0"


def machine() -> dict:
    """The core count, numpy's version, its BLAS's name and version, and the
    kernel (training bytes differ by kernel) and thread count of numpy's
    bundled OpenBLAS, each None when the library lacks the call."""
    import ctypes
    import os

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)

    def ask(symbol, restype):
        f = getattr(lib, symbol, None)
        if f is None:
            return None
        f.argtypes, f.restype = [], restype
        return f()

    kernel = ask("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_kernel": kernel.decode() if kernel else None,
        "threads": ask("scipy_openblas_get_num_threads64_", ctypes.c_int),
    }
