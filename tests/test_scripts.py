import os
import re
import subprocess
import sys
from pathlib import Path

from depthrank.scorer import LinearScorer, read_params

ROOT = Path(__file__).resolve().parents[1]
LOSSES = ("pairwise", "listnet", "listmle", "weighted-listmle")


def test_desk_benchmark_quick_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_benchmark.py"), "--quick",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    sections = re.split(r"^=== ", proc.stdout, flags=re.M)[1:]
    maps = {}
    for tag, section in zip(("noiseless", "noisy"), sections):
        assert section.startswith(f"{tag}: 100 samples x 20 items x 10 features")
        rows = [line.split() for line in section.splitlines()[2:] if line.strip()]
        assert [row[0] for row in rows] == list(LOSSES)
        maps[tag] = {row[0]: float(row[2]) for row in rows}
        assert (tmp_path / f"{tag}-data.txt").is_file()
        for loss in LOSSES:
            assert isinstance(read_params(tmp_path / f"{tag}-{loss}.params.txt"), LinearScorer)
    assert sections[2].startswith("pairwise vs weighted-listmle under label noise ===")
    last = proc.stdout.splitlines()[-1]
    match = re.fullmatch(r"map\(weighted-listmle\) - map\(pairwise\) = ([+-]\d\.\d{5})", last)
    assert match, last
    # the table rounds each MAP to 5 decimals
    printed = maps["noisy"]["weighted-listmle"] - maps["noisy"]["pairwise"]
    assert abs(float(match.group(1)) - printed) <= 1.1e-5
