"""ffmult benchmark: wall time, set-up time and memory of ffmult experiments.

    python3 perfbench/run.py --workload decay-moebius --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload in turn
    python3 perfbench/run.py --smoke                          # a few seconds; self-test

Run from anywhere; ffmult is imported from `src/` next to this directory.
One client runs in a closed loop: each run is a fresh Python process, started
after the previous one exits, with numpy/BLAS threads pinned to 1.  Untraced
runs give the end-to-end metrics (median over the runs of one invocation);
wall_s and setup_s are read at a reference host speed (hostspeed.py), and
the plain wall-clock figures are printed beside them.  `--trace 1`
alternates traced replays with the untraced runs and reports per-layer
metrics instead.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.
Full results, with the environment stamp and every span, go to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# printed and saved beside them: the same intervals in plain wall seconds, and
# the host speed the probe saw
RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "host.probe_us": "us"}

MIN_UNTRACED = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120
STOP_STARTING_S = 140  # no new run after this, so an invocation ends within 180 s


def spawn(mode: str, cfg_path: Path, csv_path: Path, run_id: int) -> dict:
    """Run one child to completion.  setup_s is measured from just before the
    spawn; wall_s and setup_s are read at the probe's reference host speed."""
    env = dict(os.environ, **THREAD_ENV)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode,
                               str(cfg_path), str(csv_path), str(run_id)],
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": "error", "detail": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "error",
                "detail": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rec = json.loads(lines[-1])
    if "t_validated" in rec:
        probe, t_valid, t_done = rec.pop("probe"), rec["t_validated"], rec["t_done"]
        rec["setup_s"] = hostspeed.adjusted(probe, t_spawn, t_valid)
        rec["wall_s"] = hostspeed.adjusted(probe, t_valid, t_done)
        rec["setup_raw_s"] = t_valid - t_spawn
        rec["wall_raw_s"] = t_done - t_valid
        rec["host.probe_us"] = 1e6 * statistics.median(
            d for t, d in probe if t_spawn <= t <= t_done)
    return rec


def environment(seed: int, numpy_version: str | None) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        git_sha = r.stdout.strip() or git_sha
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffmult").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_sha": git_sha,
            "src_sha256": src.hexdigest(), "loadavg_at_start": os.getloadavg(),
            "seed": seed, "thread_env": THREAD_ENV}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Report:
    """Collects the human-readable lines, so smoke mode can check them."""

    def __init__(self):
        self.lines: list[str] = []

    def say(self, text: str):
        self.lines.append(text)
        print(text, flush=True)

    def metric(self, workload: str, name: str, values: list, unit: str, note: str = ""):
        med = statistics.median(values)
        lo, hi = quartiles(values)
        self.say(f"{workload}  {name} = {med:.6g} {unit}  "
                 f"(median of {len(values)}; q1 {lo:.6g}, q3 {hi:.6g}){note}")
        return med


def verify(rec: dict, ref: dict | None, pinned: str | None) -> str | None:
    """Why a run failed the correctness gate, or None when it passed.  `ref`
    is the first timed run of this invocation that passed."""
    if rec["status"] != "ok":
        return f"{rec['status']}: {rec.get('detail', '')}"
    if "sha256" not in rec:  # a traced replay
        return None if rec["rows"] == ref["rows"] else "replayed rows differ from the timed run"
    if not rec["check_ok"]:
        return f"independent check failed: {rec['check_detail']}"
    if ref is not None and rec["sha256"] != ref["sha256"]:
        return "payload sha256 differs from the first run of this seed"
    if pinned is not None and rec["sha256"] != pinned:
        return f"payload sha256 {rec['sha256']} != pinned {pinned}"
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, report: Report) -> dict:
    raw = workloads.make_config(workload, seed, smoke)
    pinned = None if smoke else workloads.pinned_sha256(workload, raw)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    cfg_path, csv_path = work / f"{workload}.json", work / f"{workload}.csv"
    cfg_path.write_text(json.dumps(raw))
    warm = spawn("warmup", cfg_path, csv_path, 0)
    env = environment(seed, warm.get("numpy"))

    start = time.perf_counter()
    min_untraced, min_traced = (1, 1) if smoke else (MIN_UNTRACED, MIN_TRACED)
    runs, traced, failures = [], [], []
    ref = None

    def attempt(mode: str) -> dict:
        nonlocal ref
        rec = spawn(mode, cfg_path, csv_path, len(runs) + len(traced))
        why = verify(rec, ref, pinned)
        if why is None and ref is None and mode == "timed":
            ref = rec
        if why is not None:
            failures.append(f"{mode} run: {why}")
        rec["ok"] = why is None
        return rec

    # traced replays alternate with untraced runs, so that both see the same
    # machine and trace.overhead_frac compares like with like
    while time.perf_counter() - start < STOP_STARTING_S:
        replay_next = trace and ref is not None and len(traced) < len(runs)
        short = len(runs) < min_untraced or (replay_next and len(traced) < min_traced)
        if time.perf_counter() - start >= seconds and not short:
            break
        if replay_next:
            traced.append(attempt("replay"))
        else:
            runs.append(attempt("timed"))

    ok_runs = [r for r in runs if r["ok"]]
    attempted = len(runs) + len(traced)
    result = {"workload": workload, "config": raw, "env": env, "attempted": attempted,
              "failed": len(failures), "failures": failures,
              "untraced": [{k: r.get(k) for k in ("status", "ok", *END_TO_END_UNITS,
                                                 *RAW_UNITS, "sha256")} for r in runs],
              "metrics": {}, "raw": {}, "layer_metrics": {}, "workload_times": {},
              "spans": []}
    report.say(f"{workload}  env {json.dumps(env, sort_keys=True)}")
    if ok_runs:
        for name, unit in END_TO_END_UNITS.items():
            result["metrics"][name] = report.metric(
                workload, name, [r[name] for r in ok_runs], unit)
        result["raw"] = {name: report.metric(workload, name, [r[name] for r in ok_runs], unit)
                         for name, unit in RAW_UNITS.items()}
    report.say(f"{workload}  error_rate = {len(failures) / attempted:.6g} ratio  "
               f"({len(failures)} of {attempted} runs)")

    ok_traced = [r for r in traced if r["ok"]]
    if trace and ok_traced and ok_runs:
        per_run = [spans.layer_metrics(r) for r in ok_traced]
        # spans are plain wall seconds, so the base is the untraced wall_raw_s
        base = statistics.median(r["wall_raw_s"] for r in ok_runs)
        traced_wall = statistics.median(m["trace.wall_s"] for m in per_run)
        for m in per_run:
            m["trace.overhead_frac"] = m["trace.wall_s"] / base - 1.0
        notes = {"trace.overhead_frac": f"  base: traced median {traced_wall:.6g} s / "
                                        f"untraced wall_raw_s median {base:.6g} s - 1",
                 "trace.unattributed_s": f"  base: trace.wall_s median {traced_wall:.6g} s"}
        for name, unit in spans.LAYER_UNITS.items():
            result["layer_metrics"][name] = report.metric(
                workload, name, [m[name] for m in per_run], unit, notes.get(name, ""))
        for name in spans.WORKLOAD_TIMES.values():
            if name in per_run[0]:
                result["workload_times"][name] = report.metric(
                    workload, name, [m[name] for m in per_run], "s")
        result["spans"] = [s for r in ok_traced for s in r["spans"]]

    for why in failures:
        report.say(f"{workload}  FAILED {why}")
    verdict = "PASS" if not failures and ok_runs else "FAIL"
    report.say(f"{workload}  correctness {verdict}: payload sha256 "
               f"{ref['sha256'] if ref else None}"
               f"{' (matches pinned)' if pinned and ref else ''}; {len(ok_runs)} timed, "
               f"{len(ok_traced)} traced runs passed")
    result["correct"] = verdict == "PASS"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "smoke" if smoke else f"seed{seed}-trace{int(trace)}"
    (results / f"{workload}-{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def final_line(results: list[dict], trace: bool, prefix: bool) -> dict:
    key = "layer_metrics" if trace else "metrics"
    units = spans.LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for res in results:
        for name, value in res[key].items():
            label = f"{res['workload']}.{name}" if prefix else name
            metrics[label] = {"value": value, "unit": units[name]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}


def smoke(report: Report) -> int:
    """Every workload once at its smallest n, untraced and traced; checks that
    the correctness gate passes and that every metric is printed with its unit:
    each BENCHMARK.json metric and error_rate by every workload, each
    workload-specific layer time by at least one."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [run_workload(w, workloads.DEFAULT_SEED, 0, True, True, report)
               for w in workloads.WORKLOADS]
    problems = [f"{r['workload']}: correctness gate failed" for r in results
                if not r["correct"]]
    wanted = [(m["name"], m["unit"]) for m in declared["end_to_end"] + declared["per_layer"]]
    if sorted(wanted) != sorted({**END_TO_END_UNITS, **spans.LAYER_UNITS}.items()):
        problems.append("BENCHMARK.json metrics differ from the ones this benchmark reports")
    wanted.append(("error_rate", "ratio"))

    def printed(prefixes, name, unit):
        return any(line.startswith(f"{p}  {name} = {v}") and f" {unit}  (" in line
                   for line in report.lines for p in prefixes for v in "-0123456789")

    for w in workloads.WORKLOADS:
        problems += [f"{w}: metric {name} [{unit}] not printed"
                     for name, unit in wanted if not printed([w], name, unit)]
    # each layer time that only some workloads exercise is printed by one of them
    problems += [f"metric {name} [s] printed by no workload"
                 for name in spans.WORKLOAD_TIMES.values()
                 if not printed(workloads.WORKLOADS, name, "s")]
    for p in problems:
        report.say(f"smoke FAILED {p}")
    report.say(f"smoke {'PASS' if not problems else 'FAIL'}: {len(results)} workloads, "
               f"{len(wanted) + len(spans.WORKLOAD_TIMES)} metric names checked")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffmult" / "__init__.py").is_file():
        print(f"error: no ffmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = Report()
    if args.smoke:
        return smoke(report)
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), False, report)
               for w in names]
    line = final_line(results, bool(args.trace), prefix=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
