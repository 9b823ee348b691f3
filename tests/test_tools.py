import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_snapshot_tool(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_snapshot.py"), *map(str, argv)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_cli_snapshot_writes_and_compares(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_snapshot_tool(a, "--samples", "21").returncode == 0
    exits = {p.stem: p.read_text() for p in a.glob("*.exit")}
    # fk, ik, 13 traj, 3 dynamics, sweep, force-sweep and 2 motor-check runs;
    # only the semicircle's torques fail, at its singular midpoint.
    assert len(exits) == 22 and exits.pop("dynamics_semicircle") == "1\n"
    assert set(exits.values()) == {"0\n"}
    assert (a / "dynamics_semicircle.stderr").read_text().startswith(
        "error[model-inconsistency]: sample 10 (t = 0.261799 s, v = (")
    assert len(list(a.glob("*.csv"))) == 17
    assert (a / "traj_30_0.25.stdout").read_text() == "wrote 21 samples to traj_30_0.25.csv\n"

    same = run_snapshot_tool("--compare", a, a)
    assert (same.returncode, same.stdout) == (0, "83 files, 0 differ\n")
    shutil.copytree(a, b)
    (b / "fk.stdout").unlink()
    lines = (b / "sweep.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.5)
    lines[3] = ",".join(cells)
    (b / "sweep.csv").write_text("\n".join(lines) + "\n")
    changed = run_snapshot_tool("--compare", a, b)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [f"only in {a}: fk.stdout", "differs: sweep.csv: P2_W: 1 cells, max |diff| 0.5",
                                           "83 files, 2 differ"]
