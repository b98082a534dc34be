"""The single kernel dispatch point of the tensor engine.

Every forward primitive the tensor layer executes goes through
:func:`run_kernel`, which looks the op up in :data:`repro.engine.ops.OPS`
and runs its numpy reference kernel.  Being the one choke point, it is
also where a profiler can time kernels by op name and kind.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from .ops import OPS


def run_kernel(
    op: str, attrs: Optional[Dict[str, Any]], arrays
) -> Tuple[np.ndarray, Optional[Dict[str, Any]]]:
    """Execute ``op``'s reference kernel; returns ``(value, saved-or-None)``."""
    spec = OPS[op]
    out = spec.kernel(attrs or {}, *arrays)
    if spec.saves:
        return out
    return out, None
