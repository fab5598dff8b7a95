"""WanKeeper: efficient distributed coordination at WAN-scale.

A complete Python reproduction of the ICDCS 2017 paper, built on a
deterministic discrete-event simulation. See the README for a tour and
DESIGN.md for the system inventory.

Top-level subpackages:

* :mod:`repro.sim` -- simulation kernel
* :mod:`repro.net` -- WAN topology and transport
* :mod:`repro.zab` -- Zab atomic broadcast
* :mod:`repro.zk` -- ZooKeeper-equivalent coordination service
* :mod:`repro.wankeeper` -- the paper's contribution
* :mod:`repro.consistency` -- history checkers
* :mod:`repro.workloads` -- YCSB-style drivers and statistics
* :mod:`repro.bookkeeper` -- evaluation use case (the SCFS use case is
  fig10's YCSB spec on ``/scfs/files``)
* :mod:`repro.experiments` -- one module per paper figure
"""

__version__ = "1.0.0"
