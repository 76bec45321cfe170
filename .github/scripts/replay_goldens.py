"""Replay every golden case of tests/test_golden_cli.py under `python -O`.

Usage: python replay_goldens.py

Each case of CASES runs as `python -O -m picardlab.cli ARGV` in a fresh
temporary directory; its stdout, its stderr, every file it writes and its
exit status must match tests/data/golden byte for byte.  Every mismatch is
named on stderr and the script exits 1; with none it exits 0.  The checks do
not use assert, which -O would strip from this script too."""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden"


def load_cases() -> dict:
    """CASES of the golden test module, which imports picardlab from src."""
    sys.path.insert(0, str(SRC))
    path = ROOT / "tests" / "test_golden_cli.py"
    spec = importlib.util.spec_from_file_location("test_golden_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


def replay(name: str, argv: tuple, files: tuple, expected_status: int) -> list[str]:
    """The mismatches of one case, as lines naming what differs."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    with tempfile.TemporaryDirectory() as workdir:
        run = subprocess.run([sys.executable, "-O", "-m", "picardlab.cli", *argv],
                             cwd=workdir, env=env, capture_output=True)
        outputs = {"stdout": run.stdout, "stderr": run.stderr}
        for file in files:
            path = Path(workdir) / file
            outputs[file] = path.read_bytes() if path.is_file() else None
    problems = [] if run.returncode == expected_status else [
        f"{name}: exit status {run.returncode}, expected {expected_status}"
    ]
    for what, data in outputs.items():
        if data != (GOLDEN / f"{name}.{what}").read_bytes():
            problems.append(f"{name}: {what} differs from {name}.{what}")
    return problems


def main() -> int:
    cases = load_cases()
    statuses = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    problems = []
    for name, (argv, files) in sorted(cases.items()):
        problems += replay(name, argv, files, statuses[name])
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"replayed {len(cases)} golden cases under python -O: {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
