"""The package's import graph: no scipy.signal or scipy.fft, in a fresh interpreter.

The package calls one compiled scipy kernel, scipy.signal's _sosfilt, and
loads it from its file; its FFTs are numpy's. scipy.signal's package init
imports scipy.stats, scipy.optimize and scipy.interpolate; scipy.fft's
imports scipy.special and scipy's array-API layer, which brings in
numpy.testing and numpy.f2py. Together they cost most of a short run's
start-up, and the package needs none of them. This test's own process
imports scipy.signal and scipy.fft elsewhere, so the check runs in a
subprocess, after the import and after each subcommand, which also catches
an import that only a run reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mmwavelink

HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.fft",
         "scipy.special", "scipy._lib._array_api", "numpy.testing", "numpy.f2py")

CHECK = """
import sys
heavy, cfg, out, src = sys.argv[1].split(","), sys.argv[2], sys.argv[3], sys.argv[4]

def check(step):
    loaded = [name for name in heavy if name in sys.modules]
    assert not loaded, f"after {step}: {loaded} imported"

import mmwavelink.cli
check("import mmwavelink.cli")
for argv in (["simulate"], ["measure-pn"], ["sweep-k", "--k-list", "0,3"],
             ["stream", "--input", src]):
    assert mmwavelink.cli.main(argv + ["--config", cfg, "--out", out]) == 0, argv
    check(argv[0])
"""


def test_no_subcommand_imports_scipy_signal_or_fft(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_frames": 2, "probe": {"n_samples": 8192}}))
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(100)))
    package_root = Path(mmwavelink.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHECK, ",".join(HEAVY), str(cfg),
                           str(tmp_path / "out"), str(src)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
