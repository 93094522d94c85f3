"""The package namespace holds the names README documents and no others."""

import inspect
import re
from pathlib import Path

import dimlab

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "AltReport",
    "CountReport",
    "SizeLimitError",
    "a2",
    "a_circ",
    "alternating_oracle",
    "count_odd",
    "delta",
    "delta_circ",
    "enumerate_odd_partitions",
    "formula_alt_counts",
    "formula_counts",
    "hat_m2",
    "m4",
    "oracle_counts",
]


def test_public_surface_is_the_documented_one():
    assert sorted(dimlab.__all__) == PUBLIC
    # a re-export left out of __all__ would still widen the surface
    exported = {name for name, value in vars(dimlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC)
    documented = set(re.findall(r"`(\w+)", README.read_text()))
    for name in PUBLIC:
        assert callable(getattr(dimlab, name)), name
        assert name in documented, name
