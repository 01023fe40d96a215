"""The experiment scripts run end to end and keep their output bytes.

The digests were computed with the scripts' defaults; a change to them is a
change to what the scripts report or write, not a refactor.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORDERING_STDOUT = "55d4c8515fd41da38a1548404b50ae381c1b022662c8551d577721b7e4961b7f"
DEMO_STDOUT = "a6c9ac8206923067b2a2f40efeb5368f2ef7104519c95d300c05ad3ac44ac2a0"
DEMO_FILES = {
    "scene_demo.jsonl": "7799dde4438dadd695e0d28050e299edcb2eef16a69d6376bd40db4c66dae581",
    "scene_demo.pgm": "8700e7764e751c41e8799b26e87f9bb85559b859f89487e9a3bc5e89fb8cc0f1",
    "scene_demo.ppm": "31196fd1b90151de3c4dc65e68cb3706a088ad539479c662ca0271f0381c13af",
    "scene_demo_overlay.ppm": "307914915d9af811657b95c3de1210c2b6df697ed50757e5c5800cfdbfef7c2d",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_reproduce_ordering_stdout_is_pinned(tmp_path):
    assert sha256(run_script("reproduce_ordering.py", "--scenes", "2", cwd=tmp_path)) == ORDERING_STDOUT


def test_render_demo_outputs_are_pinned(tmp_path):
    out = tmp_path / "demo"
    assert sha256(run_script("render_demo.py", "--out", str(out), cwd=tmp_path)) == DEMO_STDOUT
    assert {p.name: sha256(p.read_bytes()) for p in out.iterdir()} == DEMO_FILES
