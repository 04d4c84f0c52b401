"""The window compiler: capture a loop iteration, lower it to closures.

* :mod:`~repro.runtime.window.recorder` — op vocabulary and the
  iteration shadow recorder.
* :mod:`~repro.runtime.window.ir` — the window IR: frozen views and
  launches, footprints, and the cross-pass verifier.
* :mod:`~repro.runtime.window.lower` — lowering passes (freeze tasks,
  batch launches).
* :mod:`~repro.runtime.window.schedule` — phase fission: overlap compute
  with the p2p handshake.
* :mod:`~repro.runtime.window.exec` — the pass list, the compile driver,
  the :class:`CompiledWindow`, and the per-loop capture state machine.
"""

from .exec import (
    CompiledWindow,
    LoopReplay,
    WindowContext,
    compile_window,
)
from .ir import (
    FrozenView,
    WindowIR,
    WindowVerifyError,
    format_window,
    window_summary,
)
from .recorder import IterationRecorder, ReplayError

__all__ = [
    "CompiledWindow", "FrozenView", "IterationRecorder", "LoopReplay",
    "ReplayError", "WindowContext", "WindowIR",
    "WindowVerifyError", "compile_window", "format_window",
    "window_summary",
]
