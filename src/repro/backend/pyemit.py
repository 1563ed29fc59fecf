"""Compatibility shim for the retired Python-source emitter library.

The writer-driven ``MarshalEmitter``/``UnmarshalEmitter`` pair that used
to live here was replaced by the explicit marshal IR: lowering now
happens in :mod:`repro.mir.lower`, the section-3 optimizations run as
passes in :mod:`repro.mir.passes`, and Python source comes from
:mod:`repro.mir.render_py`.  This module keeps the
handful of names external code imported from the old emitter library.
"""

from __future__ import annotations

from repro.mir.ops import UNROLL_LIMIT, largest_pow2_divisor, mangle

# Historical private name, still imported by the property tests.
_largest_pow2_divisor = largest_pow2_divisor

__all__ = ["UNROLL_LIMIT", "largest_pow2_divisor", "mangle"]
