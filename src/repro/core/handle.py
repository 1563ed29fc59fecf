"""The first-class compiled-interface handle.

``api.compile`` historically returned a :class:`repro.core.compiler
.CompileResult` whose consumers immediately reached into the
content-hashed stub module (``result.load_module()``) and manipulated
codec functions by name.  The profiler, the supervisor's generation
files, and user code all need to do that *safely* — so the facade now
returns a :class:`CompiledInterface`: the same result object (it is a
subclass, every existing field and method keeps working) plus a stable
surface over the loaded module:

* :attr:`module` — the loaded stub module (cached, same as
  ``load_module()``),
* :attr:`codec_table` — live per-operation codec bindings,
* :meth:`recompile` — rebuild one operation's (or the whole
  interface's) codecs under a different pass configuration and
  optionally install them atomically over the module.

Old code that treated the result as the module itself keeps working
through a deprecation shim: unknown attributes forward to the loaded
stub module with a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import re
import warnings

from repro.errors import FlickError
from repro.core.compiler import CompileResult
from repro.core.options import OptFlags

#: Codec-entry naming convention shared with the profiler and runtime:
#: form prefix -> regex capturing the operation name.
_FORM_PATTERNS = (
    ("m_req", re.compile(r"^_m_req_(.+)$")),
    ("u_req", re.compile(r"^_u_req_(.+)$")),
    ("m_rep_ok", re.compile(r"^_m_rep_ok_(.+)$")),
    ("m_rep_exc", re.compile(r"^_m_rep_x\d+_(.+)$")),
    ("u_rep", re.compile(r"^_u_rep_(.+)$")),
)


def codec_form(name):
    """``(form, op)`` for a codec entry name, or ``(None, None)``."""
    for form, pattern in _FORM_PATTERNS:
        match = pattern.match(name)
        if match is not None:
            return form, match.group(1)
    return None, None


class CompiledInterface(CompileResult):
    """A :class:`CompileResult` with a stable handle surface.

    Everything the old result carried is still here (``aoi``,
    ``presc``, ``stubs``, ``timings``, ``load_module()``); the handle
    adds the module/codec surface that instrumentation and operators
    manipulate, so nothing outside this class needs to know the
    generated module's content-hashed name or entry conventions.
    """

    # -- module surface -------------------------------------------------

    @property
    def module(self):
        """The loaded stub module (cached; same object every time)."""
        return self.stubs.load()

    @property
    def mir(self):
        """The optimized marshal IR (None for writer-driven baselines)."""
        return self.stubs.mir

    def operations(self):
        """The interface's operation names, sorted."""
        return sorted(self.stubs.metadata.get("operations", ()))

    @property
    def codec_table(self):
        """Live codec bindings: op -> {entry name: current function}.

        Read from the loaded module's dict on every access, so the table
        reflects recompiled codecs and profiler wrappers the moment they
        land.
        """
        table = {}
        for name, value in vars(self.module).items():
            form, op = codec_form(name)
            if form is None:
                continue
            table.setdefault(op, {})[name] = value
        return table

    # -- recompilation --------------------------------------------------

    def recompile(self, op=None, *, flags=None, install=True):
        """Rebuild codecs and (optionally) install them over the module.

        Args:
            op: one operation name, or None for the whole interface.
            flags: :class:`OptFlags` to rebuild under; defaults to the
                flags the stubs were generated with.
            install: when True (default) the new functions replace the
                module's entries one ``dict`` store at a time — atomic
                under the GIL, and safe mid-traffic because every pass
                configuration produces byte-identical wire output.  When
                False the functions are only returned (to verify them
                before committing).

        Returns ``{entry name: function}`` for the rebuilt codecs; they
        carry their own helpers and constants, so nothing else in the
        module changes.
        """
        stubs = self.stubs
        backend = getattr(stubs, "backend_instance", None)
        if backend is None or stubs.mir is None:
            raise FlickError(
                "these stubs carry no back end/marshal IR;"
                " recompile needs the MIR pipeline"
            )
        if flags is None:
            flags = stubs.flags or OptFlags()
        program = self._build_program(backend, flags)
        functions = self._select_functions(program, op)
        module = self.module
        new = self._compile_py(program, functions, module)
        if install:
            for name, function in new.items():
                module.__dict__[name] = function
        return new

    def _build_program(self, backend, flags):
        from repro.mir.build import build_program
        from repro.mir.passes import PassManager

        program = build_program(backend, self.presc, flags)
        return PassManager(flags).run(program)

    def _select_functions(self, program, op):
        """The op's entry functions (or all entries when *op* is None)."""
        if op is None:
            return {fn.name: fn for fn in program.functions
                    if not fn.kind.endswith("_helper")}
        selected = {fn.name: fn for fn in program.functions
                    if fn.operation == op}
        if not selected:
            raise FlickError(
                "interface %s has no operation %r (have: %s)"
                % (self.presc.interface_name, op,
                   ", ".join(self.operations()))
            )
        return selected

    def _compile_py(self, program, functions, module):
        """IR -> rendered source, exec'd into a *copy* of the module
        globals.

        The copy keeps the live module clean: the new functions carry
        their own consts and helpers in their ``__globals__`` while
        still seeing the module's record classes and imports, so a
        per-op swap never perturbs sibling operations.
        """
        from repro.backend.pywriter import PyWriter
        from repro.mir import render_py

        w = PyWriter()
        render_py.render_program(w, program)
        namespace = dict(module.__dict__)
        code = compile(w.getvalue(),
                       "<recompile %s>" % module.__name__, "exec")
        exec(code, namespace)
        return {name: namespace[name] for name in functions}

    # -- deprecation shim ----------------------------------------------

    def __getattr__(self, name):
        """Forward unknown attributes to the loaded stub module.

        The pre-handle facade returned results whose callers sometimes
        treated them as the module (client classes, ``dispatch``); that
        keeps working for one deprecation cycle.
        """
        if name.startswith("_") or name in CompileResult.__dataclass_fields__:
            # Field names must never forward: a half-built instance
            # (unpickling, copy) asking for ``stubs`` would recurse.
            raise AttributeError(name)
        try:
            value = getattr(self.stubs.load(), name)
        except AttributeError:
            raise AttributeError(
                "%r object has no attribute %r"
                % (type(self).__name__, name)) from None
        warnings.warn(
            "reaching through CompiledInterface for stub-module"
            " attribute %r is deprecated; use .module.%s" % (name, name),
            DeprecationWarning, stacklevel=2)
        return value
