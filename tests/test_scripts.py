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


def test_cli_cases_manifest_lists_every_file_sorted_with_size_and_sha256(tmp_path):
    import hashlib
    import importlib.util
    import platform

    import numpy as np

    spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "scripts" / "cli_cases.py")
    cli_cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_cases)
    files = {"b/stdout.txt": b"out\n", "a/exit.txt": b"0\n", "a/data.txt": b"", "a b/x": b"\r\n"}
    for path, blob in files.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_bytes(blob)
    cli_cases.write_manifest(tmp_path)
    lines = (tmp_path / "MANIFEST.sha256").read_text(encoding="ascii").splitlines()
    assert lines[0] == f"# python {platform.python_version()} numpy {np.__version__}"
    assert lines[1:] == [f"{path} {len(files[path])} {hashlib.sha256(files[path]).hexdigest()}"
                         for path in sorted(files)]


def test_committed_cli_cases_manifest_is_well_formed():
    lines = (ROOT / "tests" / "cli_cases.sha256").read_text(encoding="ascii").splitlines()
    assert re.fullmatch(r"# python \S+ numpy \S+", lines[0])
    paths = [line.split(" ")[0] for line in lines[1:]]
    assert paths == sorted(paths) and len(set(paths)) == len(paths)
    assert all(re.fullmatch(r"\S+ \d+ [0-9a-f]{64}", line) for line in lines[1:])
