#!/usr/bin/env python3
"""picardlab benchmark: end-to-end CLI timings and a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

--trace 0 runs the workload's fixed list of `python -m picardlab.cli ...`
invocations as child processes, one after another, repeating the list until
--seconds have passed.  Each repetition (a pass) gives one sample of
  wall_s       summed wall time of the invocations, spawn to exit,
  cpu_s        summed child user+sys time (os.wait4 rusage),
  peak_rss_mb  the largest ru_maxrss among the invocations.
wall_s and cpu_s are the trimmed mean of the passes (the slowest and fastest
tenth dropped) and peak_rss_mb is their median.  A new pass starts only while
the median pass still fits in the time left.  setup_s is the median wall
time of `python -m picardlab.cli --version` (interpreter start, package
import, parser build), sampled three times before the first pass and once
after every invocation; one untimed call before them compiles the .pyc files.
Right after each set-up sample the reference kernel of calibrate.py is timed,
and wall_s, cpu_s and setup_s are given at the reference speed: a set-up
sample is scaled by REFERENCE_S over the kernel time that follows it, and a
pass by REFERENCE_S over the mean kernel time of the samples that bracket it
(the one before the pass and the one after each of its invocations).  The
unscaled figures are printed as raw_wall_s, raw_cpu_s and raw_setup_s.
Every output is checked by the oracles in oracles.py; a failed check or
exit code counts as a failed invocation, and error_rate = failed / attempted.

--trace 1 runs the same argument lists in-process through
picardlab.cli.main(argv), alternating untraced passes with passes traced by
the wrappers of tracing.py, and reports the per-layer metrics (medians over the
traced passes) plus the tracing overhead against the untraced passes.  The
spans of the last traced pass are written as JSON Lines.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything the benchmark writes stays under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import Output  # noqa: E402

SETUP_FIRST = 3
# Share of the passes dropped at each end before wall_s and cpu_s are averaged.
TRIM = 0.1
# Metrics reported as the trimmed mean of their samples; every other metric is
# reported as the median.  The speed of this kind of shared host switches
# between a fast and a slow state that lasts from seconds to minutes.  A
# median then jumps between the two states with the share of the run spent in
# each; the mean moves in proportion to that share, and the trimming keeps a
# single stalled pass out of it.
TRIMMED_MEAN = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "ref_wall_s", "ref_cpu_s")
# A typical time of calibrate.py, spawn to exit, on the reference host (an
# "Intel(R) Xeon(R) Processor" with 2 vCPUs, Python 3.11).  The host's slow
# state can last for minutes, so raw timings of two runs of the same code can
# differ by a third; scaled by REFERENCE_S over the kernel's time measured
# right around them they read as on a host of constant speed.  The kernel runs
# no picardlab code, so a change to picardlab moves the scaled timings in full.
REFERENCE_S = 0.32
# Every run must end within 180 s; no child may outlive this share of it.
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.overhead": "ratio", "trace.untraced_s": "s", "trace.traced_s": "s",
               "cli.bytes_out": "bytes"}


def layer_unit(name: str) -> str:
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("redundancy") or name.endswith("per_classify"):
        return "ratio"
    return "count"


@dataclass
class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: " + "; ".join(problems[:3]), file=sys.stderr)


def read_output(returncode: int, stdout_path: Path, out_dir: Path, inv) -> Output:
    files = {}
    for name in inv.files:
        try:
            files[name] = (out_dir / name).read_text(encoding="utf-8")
        except OSError:
            files[name] = ""
    return Output(returncode, stdout_path.read_text(encoding="utf-8", errors="replace"), files)


def check(inv, out: Output) -> list[str]:
    """The invocation's oracle; an oracle that raises on malformed output
    counts that output as failed instead of ending the run."""
    try:
        return inv.check(out)
    except Exception as exc:  # noqa: BLE001 - any malformed output is a failure
        return [f"oracle raised {traceback.format_exception_only(exc)[-1].strip()}"]


def describe(argv) -> str:
    text = " ".join(argv)
    return text if len(text) < 90 else text[:87] + "..."


# ---------------------------------------------------------------------------
# End-to-end: child processes.


def child_env() -> dict:
    """The caller's environment without picardlab or interpreter settings
    (PICARDLAB_CHI_MAX would change the geography bound, and
    PYTHONDONTWRITEBYTECODE would put compilation into every call), with the
    checkout's sources first on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PICARDLAB_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs picardlab invocations through launcher.py, one at a time."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.stdout_path = tmp / "stdout.txt"
        self.stderr_path = tmp / "stderr.txt"
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=tmp, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, argv, program=("-m", "picardlab.cli")) -> tuple[int, float, float, float]:
        """Exit code, wall s, user+sys s and max RSS in MB of one invocation
        of picardlab, or of the given Python program."""
        request = {
            "argv": [sys.executable, *program, *argv],
            "stdout": str(self.stdout_path), "stderr": str(self.stderr_path),
            "cwd": str(self.tmp), "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        r = json.loads(reply)
        return r["returncode"], r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024


def fits(start: float, seconds: float, passes: list[float], deadline: float) -> bool:
    """Whether another pass fits in the measured time: always the first one,
    then only while the median pass so far, with its checks and samples,
    ends before --seconds run out."""
    if not passes:
        return True
    if time.monotonic() > deadline:
        return False
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def setup_sample(spawner: Spawner, tally: Tally, samples: dict) -> None:
    """One set-up sample, then one sample of the reference kernel, which
    scales it."""
    rc, setup, _cpu, _rss = spawner.run(["--version"])
    text = spawner.stdout_path.read_text(encoding="utf-8", errors="replace")
    problems = [] if rc == 0 and text.startswith("picardlab ") else [f"exit {rc}, printed {text!r}"]
    tally.record("--version", problems)
    rc, wall, cpu, _rss = spawner.run([], program=(str(HERE / "calibrate.py"),))
    text = spawner.stdout_path.read_text(encoding="utf-8", errors="replace").strip()
    if rc != 0 or text != str(calibrate.DIGEST):
        raise RuntimeError(f"the reference kernel exited {rc} and printed {text!r}")
    samples["raw_setup_s"].append(setup)
    samples["setup_s"].append(setup * REFERENCE_S / wall)
    samples["ref_wall_s"].append(wall)
    samples["ref_cpu_s"].append(cpu)


def run_e2e(invocations, tmp: Path, out_dir: Path, seconds: float, deadline: float):
    spawner = Spawner(tmp, deadline)
    tally = Tally()
    samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "raw_wall_s",
                                     "raw_cpu_s", "raw_setup_s", "ref_wall_s", "ref_cpu_s")}
    walls, cpus = samples["raw_wall_s"], samples["raw_cpu_s"]
    durations = []
    genuine = []
    try:
        spawner.run(["--version"])  # untimed: compiles the .pyc files
        for _ in range(SETUP_FIRST):
            setup_sample(spawner, tally, samples)
        start = time.perf_counter()
        while fits(start, seconds, durations, deadline):
            pass_start = time.perf_counter()
            # The kernel sample before the pass and the one after each of its
            # invocations bracket the pass.
            first_ref = len(samples["ref_wall_s"]) - 1
            wall = cpu = rss = 0.0
            for inv in invocations:
                rc, w, c, r = spawner.run(inv.argv)
                wall, cpu, rss = wall + w, cpu + c, max(rss, r)
                out = read_output(rc, spawner.stdout_path, out_dir, inv)
                problems = check(inv, out)
                tally.record(describe(inv.argv), problems)
                if not walls and not problems:
                    genuine.append((inv, out))
                # Set-up and reference samples spread over the whole run see
                # the same machine load as the passes do.
                setup_sample(spawner, tally, samples)
            walls.append(wall)
            cpus.append(cpu)
            samples["peak_rss_mb"].append(rss)
            ref_wall = statistics.fmean(samples["ref_wall_s"][first_ref:])
            ref_cpu = statistics.fmean(samples["ref_cpu_s"][first_ref:])
            samples["wall_s"].append(wall * REFERENCE_S / ref_wall)
            samples["cpu_s"].append(cpu * REFERENCE_S / ref_cpu)
            durations.append(time.perf_counter() - pass_start)
    finally:
        spawner.close()
    return samples, tally, genuine


# ---------------------------------------------------------------------------
# Per layer: in-process passes, untraced and traced in turn.


def import_picardlab():
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("PICARDLAB_")]:
        del os.environ[key]
    import picardlab.cli

    if Path(picardlab.__file__).resolve().parent != (SRC / "picardlab").resolve():
        raise SystemExit(f"imported picardlab from {picardlab.__file__}, not from {SRC}")
    return picardlab.cli


def in_process_pass(cli, invocations, tmp: Path, out_dir: Path, tally: Tally):
    """Wall seconds, bytes written (stdout plus files) and outputs of one pass."""
    wall = 0.0
    written = 0
    outputs = []
    stdout_path = tmp / "stdout.txt"
    for inv in invocations:
        with open(stdout_path, "w", encoding="utf-8") as out, redirect_stdout(out), \
                redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(list(inv.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            wall += time.perf_counter() - start
        output = read_output(rc, stdout_path, out_dir, inv)
        written += stdout_path.stat().st_size + sum(len(t.encode()) for t in output.files.values())
        problems = check(inv, output)
        tally.record(describe(inv.argv), problems)
        outputs.append((inv, output, problems))
    return wall, written, outputs


def run_traced(invocations, tmp: Path, out_dir: Path, seconds: float, deadline: float,
               spans_path: Path):
    cli = import_picardlab()
    tally = Tally()
    untraced, traced, layers = [], [], []
    # An untimed first pass warms the allocator and the code paths, so the
    # first untraced sample is not the only cold one.
    _wall, _written, outputs = in_process_pass(cli, invocations, tmp, out_dir, tally)
    genuine = [(inv, out) for inv, out, problems in outputs if not problems]
    last = None
    durations = []
    start = time.perf_counter()
    while fits(start, seconds, durations, deadline):
        pair_start = time.perf_counter()
        for on in (False, True):
            tracer = tracing.Tracer()
            with tracing.installed(tracer) if on else nullcontext():
                wall, written, _outputs = in_process_pass(cli, invocations, tmp, out_dir, tally)
            if not on:
                untraced.append(wall)
                continue
            traced.append(wall)
            sample = tracing.layer_metrics(tracer)
            sample["cli.bytes_out"] = written
            layers.append(sample)
            last = tracer
        durations.append(time.perf_counter() - pair_start)
    last.write_jsonl(spans_path)
    metrics = {name: [s[name] for s in layers] for name in layers[0]}
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    return metrics, tally, genuine


def self_test(genuine) -> list[str]:
    """Every corruption of a genuine output must make its oracle fail."""
    problems = []
    for inv, out in genuine:
        for corrupt in inv.corruptions:
            if not check(inv, corrupt(out)):
                problems.append(f"{corrupt.__name__} of {describe(inv.argv)} passed its oracle")
    if not any(inv.corruptions for inv, _out in genuine):
        problems.append("no genuine output to corrupt")
    return problems


# ---------------------------------------------------------------------------
# Provenance and reporting.


def provenance(workload: str, seed: int, seconds: float, traced: bool, inputs: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "picardlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
        "src_sha256": digest.hexdigest(), "inputs": inputs,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest TRIM share of them."""
    cut = int(len(values) * TRIM)
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def summarize(metric: str, values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    if metric in TRIMMED_MEAN:
        return {"value": trimmed_mean(values), "estimator": "trimmed mean", "median": median,
                "q1": q1, "q3": q3, "n": len(values)}
    return {"value": median, "estimator": "median", "median": median,
            "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        out_dir = tmp / "out"
        out_dir.mkdir()
        invocations, inputs = workloads.WORKLOADS[name](seed, str(out_dir))
        if traced:
            samples, tally, genuine = run_traced(
                invocations, tmp, out_dir, seconds, deadline, WORK / f"spans-{name}.jsonl")
        else:
            samples, tally, genuine = run_e2e(invocations, tmp, out_dir, seconds, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = self_test(genuine)
    stats = {metric: summarize(metric, values) for metric, values in samples.items()}
    values = {metric: s["value"] for metric, s in stats.items()}
    if traced:
        values["trace.overhead"] = values["trace.traced_s"] / values["trace.untraced_s"] - 1
        nonzero = [m for m in workloads.PREDICTED_ZERO[name] if values[m] != 0]
        if nonzero:
            problems.append(f"metrics predicted to read zero on {name} do not: {nonzero}")
        units = {metric: layer_unit(metric) for metric in values}
    else:
        units = E2E_UNITS
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    prov = provenance(name, seed, seconds, traced, inputs)
    error_rate = tally.failed / tally.attempted
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for metric, value in values.items():
        spread = stats.get(metric)
        extra = (f"  ({spread['estimator']} of {spread['n']}; median {spread['median']:.6g}, "
                 f"q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g})") if spread else ""
        print(f"{name:<10} {metric:<42} {value:>14.6g} {units.get(metric, layer_unit(metric))}{extra}")
    print(f"{name:<10} {'error_rate':<42} {error_rate:>14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": values[metric], "unit": units[metric]} for metric in units},
    }
    record = {"provenance": prov, "result": result, "samples": samples, "error_rate": error_rate,
              "problems": problems}
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "picardlab" / "cli.py").is_file():
        print(f"no picardlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
