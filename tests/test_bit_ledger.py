"""Fixed-seed runs keep the bits recorded in `tests/bit_ledger.json`.

Rerun tests elsewhere compare a run with itself; this module compares it
with the committed digests, so a change that moves any bit fails here and
names the keys that moved. `tests/bit_ledger.py` defines the keys and
regenerates the file. The digests hold only on the machine whose
fingerprint the file records; elsewhere the comparisons skip.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bit_ledger

LEDGER = json.loads(bit_ledger.LEDGER.read_text(encoding="utf-8"))
THREAD_KEY = "train/clm/mixer/float32/ctx22-batch16-d64"


@pytest.fixture(scope="module", autouse=True)
def same_machine():
    here = bit_ledger.fingerprint()
    differ = [f"{field} {here.get(field)!r} (ledger {value!r})" for field, value in LEDGER["fingerprint"].items()
              if here.get(field) != value]
    if differ:
        pytest.skip("ledger digests hold on another machine: " + "; ".join(differ))


def test_every_key_keeps_its_digest():
    got = bit_ledger.digests()
    want = LEDGER["digests"]
    moved = sorted(key for key in want.keys() & got.keys() if got[key] != want[key])
    assert not moved, f"{len(moved)} of {len(want)} ledger keys moved: " + ", ".join(moved)
    assert got.keys() == want.keys(), (
        f"keys not in the ledger: {sorted(got.keys() - want.keys())}; "
        f"ledger keys no longer computed: {sorted(want.keys() - got.keys())}"
    )


def test_one_blas_thread_gives_the_ledger_digest():
    """The benchmark runs with one BLAS thread and the suite with the default count: both see the same bits."""
    src = str(Path(bit_ledger.__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, bit_ledger.__file__, "--key", THREAD_KEY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == LEDGER["digests"][THREAD_KEY]
