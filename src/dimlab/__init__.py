"""Exact counts of standard Young tableau dimensions by residue mod 4.

The package namespace holds the counts the paper states and the reports
that collect them: `count_odd`, `a2`, `delta`, `m4`, the odd-partition
stream, the alternating-group transfer (`a_circ`, `delta_circ`,
`hat_m2`) and the brute-force oracles that check them.  The layers
underneath (binary_arith, partitions, beta_sets, parents, core_towers)
and the CLI (cli) are imported from their modules.
"""

from .alternating import (
    AltReport,
    a_circ,
    alternating_oracle,
    delta_circ,
    formula_alt_counts,
    hat_m2,
)
from .enumeration import (
    CountReport,
    a2,
    count_odd,
    delta,
    enumerate_odd_partitions,
    formula_counts,
    m4,
    oracle_counts,
)
from .errors import SizeLimitError

__version__ = "0.1.0"

__all__ = [
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
