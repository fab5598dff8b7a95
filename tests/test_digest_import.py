"""One SHA-256 for the product, and no OpenSSL in a simulation process.

Every product digest — stream seeds, topology fingerprints, scenario
digests, cache keys, fuzz spec and trace digests — comes from
``repro.sim.rng.sha256``, CPython's built-in SHA-256 module where the
interpreter has one. ``hashlib`` gives the same bytes but maps OpenSSL's
libcrypto, about 3.6 MB of peak RSS in every simulation process.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

_PROBE = """
import sys
import repro.cli, repro.experiments.common, repro.fleet, repro.fuzz
import repro.runner, repro.wankeeper
from repro.fleet import fleet_topology, topology_fingerprint
from repro.sim import seeded_rng
from repro.sim.rng import sha256
seeded_rng(42, "net").random()
topology_fingerprint(fleet_topology(8, seed=42))
print(sha256(b"abc").hexdigest(), "_hashlib" in sys.modules)
"""

_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_importing_every_product_package_leaves_openssl_unloaded():
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [_ABC, "False"]
