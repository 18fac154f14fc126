"""cppgen study benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``many-small`` and ``grid-rates``.  Each
is a closed-loop script of ``cppgen`` CLI commands, run in one process
through ``cppgen.cli.main``; the script repeats until the next repetition
would pass ``--seconds``.  Inputs for ``likelihood`` and ``fit`` are drawn
from ``--seed`` by the benchmark's own sampler, a fresh set for each
repetition (``DATASETS`` sets, used in turn); all outputs are checked, and
the optimizer iterations of every ``fit`` in every repetition are printed
and recorded.

Times are scaled to a fixed host speed (``hostspeed.py``): a reference
slice that does not touch cppgen is timed before and after each command,
and the command's time is multiplied by ``REFERENCE_S`` over the slice's
mean.  A median over repetitions of each command's scaled time is that
command's time.  Raw times are kept in the record.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``  median scaled time for a fresh interpreter to import
  ``cppgen.cli``
* ``wall_s``  time of the whole script: the sum of its commands' times
* ``sim_trees_per_s``  replicates simulated and written per second
* ``lik_trees_per_s``  trees read and evaluated per second by ``likelihood``
* ``fit_s``  total time of the ``fit`` commands
* ``peak_rss_mb``  peak RSS of the study process or its pool workers

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.LAYER_METRICS`` (medians over traced
repetitions) plus ``trace.overhead_s``.

Failed operations (commands and checks, see ``checks.py``) are reported in
``attempted``/``failed`` of the last output line and as ``fail_rate`` in the
summary above it.  A full record, with provenance and every repetition, is
written to ``.perfbench_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 5
DATASETS = 10
TIME_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("sim_trees_per_s", "1/s"),
    ("lik_trees_per_s", "1/s"), ("fit_s", "s"), ("peak_rss_mb", "MB"),
]


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("CPPGEN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cppgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def measure_setup(env: dict) -> tuple:
    """Raw and scaled import times of ``cppgen.cli`` in fresh interpreters
    (first discarded: it may compile bytecode, which users pay once).  Each
    interpreter times the reference slice three times after the import, on
    the same core, and the import is scaled by the median of the three."""
    code = ("import sys, time; t = time.perf_counter(); import cppgen.cli; "
            "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import hostspeed; "
            "r = sorted(hostspeed.reference() for _ in range(3))[1]; print(d, r)")
    raw, scaled = [], []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        d, ref = map(float, out.stdout.split()[-2:])
        raw.append(d)
        scaled.append(hostspeed.scale(d, ref, ref))
    return raw[1:], scaled[1:]


def run_child(spec_path: Path, env: dict, timeout: float) -> int:
    """Run the study in its own process group and wait for all of it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "study.py"), str(spec_path)],
                            env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    finally:
        try:  # pool workers must not outlive the run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _median(values):
    return statistics.median(values) if values else float("nan")


def scaled_times(rep: dict) -> list:
    """A repetition's command times at the reference host speed."""
    refs = rep["refs"]
    return [hostspeed.scale(t, refs[j], refs[j + 1]) for j, t in enumerate(rep["times"])]


def command_medians(reps: list, scaled: bool = True) -> list:
    """Each command's median time over repetitions, so that a burst of load
    from outside spoils one sample rather than the script's total."""
    rows = [scaled_times(r) if scaled else r["times"] for r in reps]
    return [_median(times) for times in zip(*rows)]


def end_to_end(study, reps: list, setup: list, result: dict, scaled: bool = True) -> dict:
    med = command_medians(reps, scaled)

    def total(kind):
        return sum(t for c, t in zip(study.commands, med) if c.kind == kind)

    def count(kind):
        return sum(c.count for c in study.commands if c.kind == kind)

    return {
        "setup_s": _median(setup),
        "wall_s": sum(med),
        "sim_trees_per_s": count("simulate") / total("simulate"),
        "lik_trees_per_s": count("likelihood") / total("likelihood"),
        "fit_s": total("fit"),
        "peak_rss_mb": max(result["peak_rss_self_mb"], result["peak_rss_children_mb"]),
    }


def fit_iterations(study, workdir: Path, i: int) -> list:
    """Optimizer iterations of each ``fit`` in repetition ``i`` (None where
    the output is missing: that is already a failed check)."""
    iters = []
    for c in (c for c in study.commands if c.kind == "fit"):
        try:
            with open(workdir / c.out.replace("{it}", f"it{i}"), encoding="utf-8") as fh:
                iters.append(json.load(fh)["iterations"])
        except (OSError, ValueError, KeyError):
            iters.append(None)
    return iters


def per_layer(reps: list, checker) -> dict:
    import tracer

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    names = {k for r in traced for k in r["layers"]}
    m = {k: _median([r["layers"][k] for r in traced]) for k in names}
    m["inference.iterations"] = _median([sum(filter(None, r["fit_iterations"])) for r in traced])
    m["kernel.F_T_relerr"] = checker.F_T_relerr or 0.0
    m["trace.overhead_s"] = (sum(command_medians(traced, scaled=False))
                             - sum(command_medians(plain, scaled=False)))
    return {name: {"value": m[name], "unit": unit} for name, unit in tracer.LAYER_METRICS}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "cppgen" / "cli.py").is_file():
        print(f"error: no cppgen sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = _env()
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import gen
    from checks import Checker

    prov = provenance(args)
    setup_raw, setup = ([], []) if args.trace else measure_setup(env)

    study = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        for name, obj in study.models.items():
            (workdir / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
        depths = {}
        for d in range(DATASETS):
            (workdir / f"d{d}").mkdir()
            depths[d] = {}
            for k, inp in enumerate(study.inputs):
                rng = np.random.default_rng([args.seed, d, k])
                t = inp.truth
                if inp.k:
                    trees = gen.sample_k_trees(t["lambda"], t["mu"], t["T"], inp.k, inp.reps, rng)
                else:
                    trees = gen.sample_cpp_trees(t["lambda"], t["mu"], t["T"], inp.reps, rng,
                                                 inp.y)
                gen.write_newick(workdir / inp.path.replace("{d}", f"d{d}"), trees, float(t["T"]))
                depths[d][inp.name] = trees

        spec = {
            "workdir": str(workdir), "seconds": args.seconds, "trace": args.trace,
            "datasets": DATASETS,
            "commands": [c.argv for c in study.commands],
            "result": str(workdir / "result.json"),
            "spans_out": str(OUT / f"spans-{tag}.json.gz"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = TIME_LIMIT_S - (time.monotonic() - started)
        code = run_child(spec_path, env, budget)
        if code != 0:
            print(f"error: study process exited with {code}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        reps = result["repetitions"]

        checker = Checker(study, depths)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for i, r in enumerate(reps):
                checker.check_repetition(i, r["dataset"], r["codes"], r["errors"])
                r["fit_iterations"] = fit_iterations(study, workdir, i)
        finally:
            os.chdir(cwd)

        if args.trace:
            metrics = per_layer(reps, checker)
        else:
            values = end_to_end(study, reps, setup, result)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            raw = end_to_end(study, reps, setup_raw, result, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    record = {
        "provenance": prov, "metrics": metrics, "reference_s": hostspeed.REFERENCE_S,
        "unscaled_metrics": None if args.trace else raw,
        "setup_samples_s": setup, "setup_samples_unscaled_s": setup_raw,
        "attempted": checker.attempted, "failed": failed,
        "fail_rate": failed / checker.attempted, "failures": checker.failures,
        "repetitions": reps, "peak_rss_self_mb": result["peak_rss_self_mb"],
        "peak_rss_children_mb": result["peak_rss_children_mb"],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("provenance: " + json.dumps(prov))
    for f in checker.failures[:20]:
        print(f"FAILED {f}")
    n_plain = sum(not r["traced"] for r in reps)
    print(f"repetitions: {len(reps)} ({n_plain} untraced)")
    print("fit iterations per repetition: " + json.dumps([r["fit_iterations"] for r in reps]))
    # fail_rate is 0 when all is well, so it is reported here and through
    # attempted/failed below rather than as a metric.
    print(f"  fail_rate = {failed / checker.attempted:.6g} ratio "
          f"({failed} of {checker.attempted} operations)")
    pooled = [c for c in study.commands
              if c.kind == "simulate" and c.argv[c.argv.index("--workers") + 1] != "1"]
    if args.trace and pooled:
        print(f"note: {len(pooled)} simulate commands run simulate_cpp and definetti_sample "
              "in pool workers, where they are not traced")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
