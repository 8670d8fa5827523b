"""The malloc policy `import blf` sets: freed step memory stays in the heap.

Without it glibc trims the heap top and unmaps large blocks after every
training step, and the next step page-faults the same memory in again
(~12,000 minor faults per `tiny` step at B=16, L=128).
"""

import ctypes
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import blf

STEP_FAULTS = """
import resource
import numpy as np
from blf.encoder import preset
from blf.pretrain import PretrainHyper, RtdPretrainer

hyper = PretrainHyper(batch_size=16, warmup_steps=50, total_steps=500)
trainer = RtdPretrainer(preset("tiny"), hyper, seed=0)
ids = np.random.default_rng(0).integers(5, 512, size=(64, 128))
steps = trainer.run(ids, steps=8)
for _ in range(3):
    next(steps)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    next(steps)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
def test_warm_pretraining_steps_fault_in_no_fresh_pages():
    # a fresh process: pytest's own heap would hide or add faults
    env = dict(os.environ, PYTHONPATH=str(Path(blf.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", STEP_FAULTS], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert float(out.stdout) < 200


@pytest.mark.parametrize("libc", ["no-handle", "windows", "no-mallopt"])
def test_import_without_mallopt_is_silent(monkeypatch, capfd, libc):
    def fake_cdll(name):
        if libc == "no-handle":
            raise OSError("no C library")
        if libc == "windows":  # LoadLibrary refuses a None name
            raise TypeError("LoadLibrary() argument 1 must be str, not None")
        return object()  # a library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    importlib.reload(blf)
    assert blf.__version__
    assert capfd.readouterr() == ("", "")
