"""The window compiler: capture a loop iteration, lower it to closures.

* :mod:`~repro.runtime.window.recorder` — op vocabulary and the
  iteration shadow recorder.
* :mod:`~repro.runtime.window.ir` — the window IR: footprints and the
  cross-pass verifier.
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
    WindowIR,
    WindowVerifyError,
    window_summary,
)
from .recorder import IterationRecorder, ReplayError

__all__ = [
    "CompiledWindow", "IterationRecorder", "LoopReplay",
    "ReplayError", "WindowContext", "WindowIR",
    "WindowVerifyError", "compile_window",
    "window_summary",
]
