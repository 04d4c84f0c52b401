"""The ``net`` backend: multi-rank SPMD over a TCP peer mesh.

Layout:

* :mod:`repro.runtime.net.frame` — the wire format (framed tagged values).
* :mod:`repro.runtime.net.transport` — the full-mesh peer transport.
* :mod:`repro.runtime.net.sync` — the launch's comm context on the wire:
  channel endpoints, credit windows, binomial-tree collectives.
* :mod:`repro.runtime.net.plan` — a copy statement's pairs to one peer
  rank as one packed message, interpreted or replayed.
* :mod:`repro.runtime.net.driver` — the rank body, run under the shared
  fork-and-funnel loop (single host) or inline as one worker (multi host).

Kept import-light on purpose: the backend registry imports the driver
only when a ``net`` launch runs, so most runs never load the socket code.
"""
