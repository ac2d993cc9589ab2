"""The scripts README advertises run to completion and print their known values."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_reference_tables():
    # P(collision survival) at n = 365, m = 22, to seven digits
    assert "0.4927028" in _run("make_reference_tables.py")


def test_early_exit_tradeoff():
    out = _run("early_exit_tradeoff.py", "--n-grid", "16", "64", "--trials", "200")
    # n = 64: expected comparisons saved 42.1 and early-exit flag writes 1063.6
    assert [line.split()[:3] for line in out.splitlines() if line.split()[:1] == ["64"]] == [
        ["64", "42.1", "1063.6"]]
    assert "simulation check at n=64, 200 trials:" in out


def test_rayleigh_convergence(tmp_path):
    out = _run("rayleigh_convergence.py", "--n-grid", "100", "200", "--out",
               str(tmp_path / "rc.csv"))
    assert "KS(pass)=0.117435" in out
    header, first, second = (tmp_path / "rc.csv").read_text().splitlines()
    assert header.startswith("n,ks_pass,ks_collision")
    assert float(first.split(",")[1]) == pytest.approx(0.117435, abs=1e-6)
    assert second.startswith("200,")
