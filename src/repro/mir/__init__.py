"""repro.mir — the explicit marshal IR (typed ops, passes, renderer).

Pipeline::

    PRES_C --build_program--> MirProgram --PassManager--> MirProgram
           --render_py--> Python stubs

:mod:`repro.mir.ops` defines the op vocabulary, :mod:`repro.mir.build`
walks PRES_C once to produce a :class:`~repro.mir.ops.MirProgram`,
:mod:`repro.mir.passes` runs the section-3 optimizations, and
:mod:`repro.mir.render_py` renders the optimized IR as Python source.
C stubs come from :mod:`repro.backend.cemit`.
"""

from repro.mir.ops import MirFunction, MirProgram, mangle  # noqa: F401
from repro.mir.build import build_naive, build_program  # noqa: F401
from repro.mir.passes import (  # noqa: F401
    IR_PASSES,
    LOWERING_PASSES,
    PASS_NAMES,
    PassManager,
)
