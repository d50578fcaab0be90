"""repro — reproduction of "Generic External Memory for Switch Data Planes".

HotNets 2018 (Kim, Zhu, Kim, Lee, Seshan).  The package provides:

* a discrete-event network simulator with byte-accurate RoCEv2,
* a programmable-switch model in the Tofino mould,
* the paper's three remote-memory primitives (packet buffer, lookup table,
  state store) implemented as switch data-plane components,
* the motivating applications, baselines, workloads and experiment
  harnesses that regenerate every table and figure in the paper.

Start with ``examples/quickstart.py``; every experiment in
:mod:`repro.experiments` runs, checked, as ``repro-experiments <name> --quick``.
"""

__version__ = "0.1.0"
