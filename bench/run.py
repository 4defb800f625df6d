"""fedransom benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload desk-fed --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The inputs are made from --seed
with the program's own `synth` command; the workload then runs in a child
process of its own (bench/child.py), untraced, for --seconds seconds and
checks its outputs. With --trace 1 a second child runs one cycle with
the public functions of the layers wrapped, and the per-layer metrics
come from its spans. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"     # scratch inputs, span files and the digest record

# Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
# One BLAS thread per process: the wire workload already runs a thread per
# core, and the pin keeps the matmul thread count out of the run-to-run spread.
BLAS_THREADS = "1"

# synth arguments per workload; the generator's seed is the run's --seed
CORPUS = {
    "desk-fed": ["--preset", "desk"],                 # 300 files per class, 4 KiB..256 KiB
    "wire-300": ["--n-per-class", "1"],               # one sample per client
    "ref-step": ["--n-per-class", "32"],              # 64 files
}

# the end-to-end time each workload's tracing overhead is measured on
PRIMARY = {"desk-fed": "round_s", "wire-300": "round_s", "ref-step": "epoch_s"}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())))


def _child(workload: str, seed: int, seconds: float, data: Path, work: Path,
           deadline: float, spans: Path | None = None) -> dict:
    out = work / f"{workload}{'-traced' if spans else ''}.json"
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--data", str(data),
            "--work", str(work), "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = _run(argv, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(out.read_text())


def _code_version() -> str:
    """Hash of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_digest_as_before(key: str, digest: str) -> bool:
    """Record the final-weight digest of (code version, workload, seed) and
    compare it with what earlier runs of the same code recorded."""
    record = RUNS / "digests.json"
    known = json.loads(record.read_text()) if record.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, record)
    return True


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description="fedransom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(CORPUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + 175.0

    if not (SRC / "fedransom" / "__init__.py").is_file():
        return _fail(f"no fedransom sources under {SRC}; run from a source checkout")

    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    data = work / "corpus"
    work.mkdir(parents=True, exist_ok=True)
    try:
        synth = _run([sys.executable, "-m", "fedransom", "synth", "--out", str(data),
                      "--seed", str(args.seed)] + CORPUS[args.workload], deadline)
        if synth.returncode != 0:
            sys.stderr.write(synth.stderr)
            return _fail("synth failed")

        res = _child(args.workload, args.seed, args.seconds, data, work, deadline)
        checks = dict(res["checks"])
        notes = list(res["notes"])
        attempted, failed = res["attempted"], res["failed"]

        digests = set(res["digests"])
        checks["same_weights_every_cycle"] = len(digests) == 1
        if len(digests) == 1:
            key = f"{_code_version()}:{args.workload}:{args.seed}"
            checks["same_weights_as_earlier_runs"] = _same_digest_as_before(key, digests.pop())
        if args.workload == "wire-300":
            ref = _child("wire-reference", args.seed, args.seconds, data, work, deadline)
            checks["wire_equals_run_federation"] = set(res["digests"]) == set(ref["digests"])

        if args.trace:
            spans = work / "spans.json"
            traced = _child(args.workload, args.seed, args.seconds, data, work, deadline, spans)
            checks.update({f"traced_{k}": v for k, v in traced["checks"].items()})
            notes += traced["notes"]
            layers = traced["layers"]
            primary = PRIMARY[args.workload]
            untraced = statistics.median(res[primary])
            layers["trace.overhead_pct"] = 100.0 * (traced[primary][0] - untraced) / untraced
            per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics = {m["name"]: _metric(layers.get(m["name"], 0), m["unit"])
                       for m in per_layer}
            keep = RUNS / "traces" / f"{args.workload}-seed{args.seed}.json"
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), keep)
            print(f"spans: {keep.relative_to(ROOT)}")
        else:
            metrics = {
                "setup_s": _metric(res["setup_s"], "s"),
                "round_s": _metric(statistics.median(res["round_s"]), "s"),
                "epoch_s": _metric(statistics.median(res["epoch_s"]), "s"),
                "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
            json.JSONDecodeError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes += [f"check {name} failed" for name, ok in checks.items()
              if not ok and not any(name in note for note in notes)]
    for note in notes:
        print(f"bench: {note}", file=sys.stderr)
    print("env: " + json.dumps({**res["env"], "blas_pin": BLAS_THREADS}))
    # shown, not gated: the triage rate drifts with the host by more than any bound
    info = {"cycles": len(res["round_s"]), **res["extra"]}
    if res["triage_files_per_s"]:
        info["triage_files_per_s"] = statistics.median(res["triage_files_per_s"])
    print("info: " + json.dumps(info))
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
