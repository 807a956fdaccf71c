#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for troplectra.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lab_gram --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke          # every workload at tiny sizes
    python3 perfbench/run.py --write-golden   # re-record the expected outputs

Each workload is one closed loop: one client in one process with no
threads, sending the next operation when the previous one returns.  BLAS is
pinned to one thread.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
Op times are scaled to a nominal machine speed by interleaved reference
bursts (see ``speed.py``); the raw figures are kept in the results file.
``setup_s`` is the median over seven fresh processes, each timed from its
start to the end of its warm-up.  ``--trace 1`` runs the first ops of the
pass untraced and once more under the outside-in tracer (``tracer.py``) and
prints the per-layer metrics.  Every output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, the run record and (when traced) the spans are
written under ``.perfbench/`` in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from speed import SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# A traced run covers the first ops of the pass, whose order keeps the mix
# of the whole pass, so its call counts are fixed by the seed.
TRACE_OPS = 300
SMOKE_PARAMS = {
    "spectral_cli": {"sizes": [3, 4], "pick": 1},
    "lab_families": {"sizes": [4, 5], "pick": 1},
    "lab_gram": {"gram_sizes": [40], "pick": 1},
    "star_scale": {"sizes": [12, 12], "pick": 1},
}


def import_library():
    """Import troplectra from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "troplectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no troplectra sources under {src}")
    sys.path.insert(0, str(src))
    import troplectra
    import troplectra.cli  # noqa: F401  (not imported by the package)

    if Path(troplectra.__file__).resolve().parent != (src / "troplectra").resolve():
        raise SystemExit(f"error: imported troplectra from {troplectra.__file__}")
    return troplectra


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden(workload) -> dict:
    path = HERE / "golden" / f"{workload.name}.json"
    golden = json.loads(path.read_text())
    if golden["params"] != workload.pool_params():
        raise SystemExit(
            f"error: {path} was recorded for other parameters; run --write-golden"
        )
    return golden["ops"]


def digest(*parts) -> str:
    return hashlib.sha256("\x00".join(map(str, parts)).encode()).hexdigest()[:20]


# --- setup --------------------------------------------------------------------


def setup(name: str, seed: int, params: dict | None = None):
    """Import the library, build the inputs and run the warm-up ops."""
    tl = import_library()
    workload = WORKLOADS[name]()
    if params:
        workload.params = {**workload.params, **params}
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    corpus = workload.corpus(tl, seed, workdir, ROOT)
    for op in corpus.warmup:
        execute(op)
    return tl, workload, corpus, workdir


def setup_probe(name: str, seed: int) -> None:
    _, _, _, workdir = setup(name, seed)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Wall time from starting a fresh process to the end of its warm-up.

    Not scaled by the reference bursts: process start-up and imports do
    not slow down with the host the way the bursts do.
    """
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
    return samples


# --- running ops --------------------------------------------------------------


def execute(op):
    try:
        return op.call()
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        return -1, f"unexpected {type(exc).__name__}", traceback.format_exc()


def run_ops(ops, seconds: float | None, tracer: Tracer | None = None):
    """Closed loop over ``ops``: until ``seconds`` pass, or one pass if None.

    Returns (records, speed log); a record is (op index, start, latency,
    scaled latency, exit code, error class, output).  Text outputs are kept
    once per distinct text, library results as objects.
    """
    texts: dict[str, str] = {}
    records = []
    speed = SpeedLog()
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    i = 0
    last_op_s = 0.0
    while True:
        idx = i % len(ops)
        speed.maybe_probe(last_op_s)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        code, err, out = execute(ops[idx])
        t1 = clock()
        last_op_s = t1 - t0
        if isinstance(out, str):
            key = digest(out)
            texts.setdefault(key, out)
            out = texts[key]
        records.append([idx, t0, t1 - t0, None, code, err, out])
        i += 1
        if (deadline is None and i == len(ops)) or (deadline is not None and t1 >= deadline):
            break
    speed.probe()
    for rec in records:
        rec[3] = rec[2] * speed.factor(rec[1], rec[1] + rec[2])
    return records, speed


def check_records(tl, workload, ops, records, golden) -> tuple[int, list[str]]:
    """Compare every op's output with the recorded one and the float oracles."""
    failed = 0
    problems: list[str] = []
    float_seen: dict[tuple, list[str]] = {}
    for idx, _, _, _, code, err, out in records:
        op = ops[idx]
        found = []
        if out is None:
            text = ""
        elif isinstance(out, str):
            text = out
        else:
            text = workload.render(tl, op, out)
        if err.startswith("unexpected"):
            found.append(f"{op.key}: {err}")
        try:
            exact = workload.exact(op, text) if code == 0 else text
            want = golden.get(op.key)
            if want is None:
                found.append(f"{op.key}: no recorded output")
            elif digest(code, err, exact) != want:
                found.append(f"{op.key}: output differs from the recorded one "
                             f"(exit {code} {err})")
            elif code == 0:
                fkey = (op.key, digest(text))
                if fkey not in float_seen:
                    float_seen[fkey] = [f"{op.key}: {p}" for p in
                                        workload.float_problems(op, text)]
                found += float_seen[fkey]
        except (ValueError, KeyError, IndexError) as exc:
            found.append(f"{op.key}: unreadable output ({type(exc).__name__}: {exc})")
        if found:
            failed += 1
            problems += found
    return failed, problems


# --- metrics and the run record -----------------------------------------------


def latency_metrics(latencies: list[float], suffix: str = "") -> dict:
    """Throughput of the closed loop and its latency percentiles."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        f"ops_per_s{suffix}": len(latencies) / sum(latencies),
        f"latency_p50_ms{suffix}": 1000 * statistics.median(latencies),
        f"latency_p90_ms{suffix}": 1000 * cuts[89],
    }


def run_record(seed: int, load_start: float) -> dict:
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "troplectra").glob("*.py")):
        src.update(path.name.encode() + b"\x00" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 params: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    process_start = time.perf_counter()
    load_start = os.getloadavg()[0]
    tl, workload, corpus, workdir = setup(name, seed, params)
    setup_main_s = time.perf_counter() - process_start
    golden = load_golden(workload)
    try:
        report = {"workload": name, "seed": seed, "trace": int(trace),
                  "ops_per_pass": len(corpus.ops), "setup_main_s": setup_main_s}
        if trace:
            ops = corpus.ops[:TRACE_OPS]
            records, _ = run_ops(ops, None)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_speed = run_ops(ops, None, tracer)
            finally:
                tracer.uninstall()
            untraced_s = sum(r[3] for r in records)
            traced_s = sum(r[3] for r in traced)
            records += traced
            scale = traced_speed.overall()
            measured = {k: v * scale if k.endswith(".self_s") else v
                        for k, v in tracer.aggregates().items()}
            measured["trace.overhead_ratio"] = traced_s / untraced_s
            measured["trace.spans_dropped"] = tracer.dropped
            report.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s,
                          speed=traced_speed.summary())
        else:
            records, speed = run_ops(corpus.ops, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            scaled = [r[3] for r in records]
            measured = {"peak_rss_mb": peak_rss_mb, **latency_metrics(scaled),
                        **latency_metrics([r[2] for r in records], "_raw")}
            p90 = measured["latency_p90_ms"] / 1000
            by_key: dict[str, list[float]] = {}
            for rec in records:
                by_key.setdefault(corpus.ops[rec[0]].key, []).append(1000 * rec[3])
            report.update(samples=len(scaled),
                          samples_beyond_p90=sum(x > p90 for x in scaled),
                          speed=speed.summary(),
                          op_latency_ms={k: {"count": len(v), "median": statistics.median(v)}
                                         for k, v in sorted(by_key.items())})
        failed, problems = check_records(tl, workload, corpus.ops, records, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    accuracy = workload.accuracy()
    if not trace:
        setup_samples = measure_setup(name, seed, setup_repeats)
        measured["setup_s"] = statistics.median(setup_samples)
        report["setup_samples_s"] = setup_samples
    measured["eig_rel_err_max"] = accuracy.get("eig_rel_err_max", 0.0)
    report.update(
        attempted=len(records),
        failed=failed,
        error_rate=failed / len(records),
        measured=measured,
        accuracy=accuracy,
        problems=problems[:200],
        record=run_record(seed, load_start),
    )
    if trace:
        report["spans_file"] = str(write_spans(tracer, name, seed).relative_to(ROOT))
    return report


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    path = OUT / "results" / f"{name}-seed{seed}.spans.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(path)
    return path


def select_metrics(report: dict, spec: dict) -> dict:
    group = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    return {
        m["name"]: {"value": report["measured"].get(m["name"], 0), "unit": m["unit"]}
        for m in group
    }


def write_report(report: dict) -> Path:
    path = OUT / "results" / (
        f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    return path


def print_summary(report: dict, metrics: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  ops {report['attempted']}  "
          f"failed {report['failed']}  error_rate {report['error_rate']:.6g} ratio")
    if not report["trace"]:
        print(f"  latency samples {report['samples']}, "
              f"{report['samples_beyond_p90']} beyond p90")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    if report["trace"]:
        self_s = {k[:-7]: v for k, v in report["measured"].items()
                  if k.endswith(".self_s") and k.count(".") > 1}
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
        print("  largest self time: " + ", ".join(f"{k} {v:.3g} s" for k, v in top))
    acc = report["accuracy"]
    if acc:
        print(f"  eig_rel_err_max {acc['eig_rel_err_max']:.6g} at {acc['eig_rel_err_worst']}")
    for p in report["problems"][:20]:
        print(f"  FAIL {p}")


# --- modes --------------------------------------------------------------------


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; fails on any error."""
    spec = load_spec()
    bad = []
    for name, params in SMOKE_PARAMS.items():
        for trace in (False, True):
            report = run_workload(name, 0, 0.5, trace, params, setup_repeats=1)
            metrics = select_metrics(report, spec)
            print_summary(report, metrics)
            missing = [m for m in metrics if m not in report["measured"]]
            if report["failed"] or missing:
                bad.append(f"{name} trace={int(trace)}: failed {report['failed']}, "
                           f"missing {missing}")
    for line in bad:
        print(f"SMOKE FAIL {line}")
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def write_golden(names: list[str]) -> int:
    """Run every op of every pool instance once and record its exact output."""
    tl = import_library()
    status = 0
    for name in names:
        workload = WORKLOADS[name]()
        workdir = OUT / "work" / f"golden-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            corpus = workload.corpus(tl, 0, workdir, ROOT, full=True)
            records, _ = run_ops(corpus.ops, None)
            wall = sum(r[2] for r in records)
            expected = {}
            problems = []
            for idx, _, _, _, code, err, out in records:
                op = corpus.ops[idx]
                if err.startswith("unexpected"):
                    problems.append(f"{op.key}: {err}\n{out}")
                    continue
                text = "" if out is None else out if isinstance(out, str) \
                    else workload.render(tl, op, out)
                exact = workload.exact(op, text) if code == 0 else text
                expected[op.key] = digest(code, err, exact)
                if code == 0:
                    problems += [f"{op.key}: {p}" for p in workload.float_problems(op, text)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        errors = sum(1 for r in records if r[4] != 0)
        print(f"{name}: {len(expected)} ops, {errors} expected errors, {wall:.1f} s, "
              f"accuracy {workload.accuracy()}")
        if problems:
            status = 1
            print("\n".join(problems[:50]))
            continue
        path = HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"params": workload.pool_params(), "ops": expected},
                                   indent=0, sort_keys=True) + "\n")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.write_golden is not None:
        return write_golden(args.write_golden or sorted(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = load_spec()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = select_metrics(report, spec)
    report["metrics"] = metrics
    path = write_report(report)
    print_summary(report, metrics)
    print(f"  results in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
