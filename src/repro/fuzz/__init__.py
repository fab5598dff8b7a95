"""Fault-schedule fuzzer for the WanKeeper simulation.

The nemesis injects the environmental faults of the paper's crash-recovery
model, the invariant sentinel (:mod:`repro.invariants`) catches the
resulting safety violations, and the structured trace (:mod:`repro.trace`)
records exactly what happened. The fuzzer is five steps over them:
generate a case, run it, judge it with the sentinel, shrink a failure to
a minimal schedule, and replay the artifact bit-identically.

Layout:

* :mod:`repro.fuzz.spec` — the declarative, JSON-plain case spec
  (topology + deployment + workload + fault schedule) and its digest;
* :mod:`repro.fuzz.generate` — seeded case generation, one named RNG
  substream per dimension and per fault kind;
* :mod:`repro.fuzz.case` — one spec to a world and a schedule nemesis,
  run by the soak driver (:mod:`repro.soak`), and its record to a
  verdict (``ok`` / ``violation`` / ``hang``) with a trace digest;
* :mod:`repro.fuzz.shrink` — ddmin-style schedule minimization;
* :mod:`repro.fuzz.campaign` — one :mod:`repro.runner` executor call
  over the generated cases (parallelism, per-case timeout, crash
  and hang capture);
* :mod:`repro.fuzz.cli` — ``python -m repro fuzz`` (including
  ``--replay``).

See ``docs/FUZZING.md`` for the operator's view.
"""

from repro.fuzz.campaign import run_campaign
from repro.fuzz.case import run_fuzz_case
from repro.fuzz.generate import generate_case
from repro.fuzz.shrink import shrink_case, signature_of
from repro.fuzz.spec import canonical_spec, spec_digest, validate_spec

__all__ = [
    "canonical_spec",
    "generate_case",
    "run_campaign",
    "run_fuzz_case",
    "shrink_case",
    "signature_of",
    "spec_digest",
    "validate_spec",
]
