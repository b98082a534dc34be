"""The tensor engine: one op table, one dispatch point, numpy kernels.

The tensor layer (:mod:`repro.tensor`) executes every forward primitive
through :func:`~repro.engine.runtime.run_kernel`, which runs the op's
numpy reference kernel from the :data:`~repro.engine.ops.OPS` table
immediately.  Each op declares its kind (elementwise / reduce / contract
/ movement / other), so kernel time can be grouped by kind.
"""

from .ops import (
    CONTRACT,
    ELEMENTWISE,
    MOVEMENT,
    OPS,
    OTHER,
    REDUCE,
    OpSpec,
    col2im,
    im2col,
)
from .runtime import run_kernel

__all__ = [
    "OPS",
    "OpSpec",
    "col2im",
    "im2col",
    "run_kernel",
    "ELEMENTWISE",
    "REDUCE",
    "CONTRACT",
    "MOVEMENT",
    "OTHER",
]
