"""Shared helpers for the benchmark: locating the library and naming items.

The benchmark always imports ``leibnizalg`` from ``src/`` of the checkout it
lives in, never from an installed copy, so that it measures the tree it
ships with.  Without that tree it exits with code 2.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

#: the field of every F_2 item in the reference
P2 = 2


class MissingLibrary(RuntimeError):
    """The checkout holds no ``src/leibnizalg`` to benchmark."""


def load_library():
    """Import leibnizalg from this checkout's src/ and return the package."""
    init = SRC / "leibnizalg" / "__init__.py"
    if not init.is_file():
        raise MissingLibrary(f"no library sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("leibnizalg")
    if Path(lib.__file__).resolve() != init.resolve():
        raise MissingLibrary(f"leibnizalg resolved to {lib.__file__}, "
                             f"not to {init}")
    for name in ("algebra", "compat", "exact", "fp", "operators", "cli"):
        importlib.import_module("leibnizalg." + name)
    return lib


def binding_label(name: str, bindings: dict) -> str:
    if not bindings:
        return name
    return name + "[" + ",".join(f"{k}={v}"
                                 for k, v in sorted(bindings.items())) + "]"


def bound_tables(lib, tables):
    """Every table at every admissible sample binding:
    [(label, bound table, bindings)], in catalog order."""
    out = []
    for t in tables:
        for b in lib.algebra.sample_bindings(t):
            out.append((binding_label(t.name, b),
                        lib.algebra.bind_params(t, b) if b else t, b))
    return out


def combo_key(label: str, kind_name: str) -> str:
    return f"{label}/{kind_name}"


def family_key(algebra: str, kind_name: str, index: int) -> str:
    return f"{algebra}/{kind_name}#{index}"


def index_digest(indices) -> str:
    """Short content hash of an ascending solution-index array."""
    arr = np.ascontiguousarray(np.asarray(indices, dtype="<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def bound_charts(lib, fams, bindings):
    """Families with the table's sample binding substituted into the charts."""
    if not bindings:
        return list(fams)
    sub = {k: lib.exact.parse_expr(str(v)) for k, v in bindings.items()}
    return [lib.fp.bind_family(f, sub) for f in fams]
