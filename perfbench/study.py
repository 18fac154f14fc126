"""Run one workload's command script in a closed loop, in this process.

Usage: ``python3 perfbench/study.py SPEC.json`` (started by ``run.py``).

The script is repeated, each command through ``cppgen.cli.main(argv)``,
until the next repetition would pass the time budget (at least one runs).
Repetition ``i`` reads input set ``d<j>/`` (``j = i`` modulo the number of
sets; with tracing on, a traced repetition reads the same set as the
untraced one before it) and writes its outputs to ``it<i>/`` in the work
dir, where ``run.py`` checks them after this process has exited.  With
tracing on, repetitions alternate untraced / traced, so the two can be
compared.  The host-speed reference slice (``hostspeed.py``) is timed
before every command and after the last one.

Peak RSS is read at the end of the loop, for this process and for the
simulation pool workers it started (``RUSAGE_CHILDREN``).
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import resource
import sys
import time
import traceback

import hostspeed


def run(spec: dict) -> dict:
    os.chdir(spec["workdir"])
    from cppgen import cli

    tracing = bool(spec["trace"])
    if tracing:
        import tracer
    budget = float(spec["seconds"])
    clock = time.perf_counter
    begin = clock()
    reps = []
    last_wall = {}
    last_spans = None
    while True:
        i = len(reps)
        traced = tracing and i % 2 == 1
        dataset = (i // 2 if tracing else i) % spec["datasets"]
        os.makedirs(f"it{i}")
        gc.collect()
        tr = None
        if traced:
            tr = tracer.Tracer()
            tracer.install(tr)
        times, codes, errors, refs = [], [], [], []
        t0 = clock()
        for argv in spec["commands"]:
            refs.append(hostspeed.reference())
            argv = [a.replace("{it}", f"it{i}").replace("{d}", f"d{dataset}") for a in argv]
            c0 = clock()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                code = None
                errors.append(traceback.format_exc(limit=4))
            times.append(clock() - c0)
            codes.append(code)
        refs.append(hostspeed.reference())
        wall = clock() - t0
        it = {"traced": traced, "dataset": dataset, "wall_s": wall, "times": times,
              "refs": refs, "codes": codes, "errors": errors}
        if tr is not None:
            tr.restore()
            it["layers"] = tracer.layer_metrics(tr.spans)
            last_spans = tr.spans
        reps.append(it)
        last_wall[traced] = wall
        nxt = tracing and not traced
        est = last_wall.get(nxt, wall)
        done = len(reps) >= (2 if tracing else 1)
        if done and clock() + est > begin + budget:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if last_spans is not None and spec.get("spans_out"):
        with gzip.open(spec["spans_out"], "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"], "spans": last_spans}, fh)
    return {
        "repetitions": reps,
        "peak_rss_self_mb": self_kb / 1024.0,
        "peak_rss_children_mb": child_kb / 1024.0,
    }


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
