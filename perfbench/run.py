"""SAFE benchmark: one workload, its end-to-end metrics or its per-layer trace.

Usage, from the repository root:
  python3 perfbench/run.py --workload local-wide --seed 1 --seconds 10 --trace 0

Builds the program on first use (perfbench/build.py), runs the workload in
fresh JVMs, checks their outputs, prints the machine and sample counts on one
line and the result as the last line of stdout:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. perfbench/README.md describes the workloads and metrics.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing in perfbench/ itself
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
SPEC = ROOT / "BENCHMARK.json"
# Fresh JVMs per --trace 0 run: set-up is sampled once per JVM, and warm
# fits and served records are pooled across them, which evens out the
# JVM-to-JVM spread of JIT outcomes.
JVMS = {"local-wide": 3, "local-tall": 3, "spark-fit": 1}
# Least served records per --trace 0 run, pooled over its JVMs. The fastest
# quarter of the slices is kept (see fastest_quarter), so on local-wide p99
# has about 10 beyond it.
RECORDS = {"local-wide": 4000, "local-tall": 4000, "spark-fit": 3000}
# Fixed heap and young generation: the collector does not resize between runs,
# and a 500 ms serving slice does not fill the young generation.
HEAP = ["-Xms2g", "-Xmx2g", "-Xmn1g"]
RUN_LIMIT_S = 175
# JDK 17 module opens that Spark needs (the list build.sbt passes to forked JVMs).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def jvm(cp, mode, workload, seed, seconds, records, auc, deadline):
    """Runs one perfbench.Main JVM; returns its JSON result."""
    scratch = build.OUT / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *HEAP, "-XX:-UsePerfData", *OPENS,
           f"-Djava.io.tmpdir={scratch}",
           f"-Dlog4j.configurationFile={ROOT / 'perfbench' / 'log4j2.properties'}",
           "-Dspark.driver.host=127.0.0.1", f"-Dspark.local.dir={scratch}",
           f"-Dspark.sql.warehouse.dir={scratch / 'warehouse'}",
           "-cp", cp, "perfbench.Main", mode, workload, str(seed), f"{seconds:.3f}", str(records), str(int(auc))]
    proc = subprocess.run(cmd, cwd=scratch, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: JVM exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def fastest_quarter(samples, key=lambda x: x):
    """The fastest quarter of one JVM's Ψ samples: served-record slices
    ranked by their median, or batch times.

    On the 4-vCPU Xeon VM the benchmark was tuned on, the speed of
    allocation-heavy code, such as Ψ on one record, swung by up to 1.8x in
    phases of 0.5 s to a minute, while an integer loop kept its speed. With
    about half the slices in a slow phase, the pooled median of all records
    jumped between the phases from run to run. Slices are 100 ms, shorter
    than the phases, and a batch takes 25-700 ms; keeping the fastest quarter
    drops the host's slow stretches, and keeps any slowdown of the program,
    which every sample shares. Fits last 1-10 s, average over the phases and
    are not filtered.
    """
    ranked = sorted(samples, key=key)
    return ranked[:max(1, math.ceil(len(ranked) / 4))]


def end_to_end(runs):
    """Pools the JVMs of one --trace 0 run into the end-to-end metrics."""
    fits = [x for r in runs for x in r["fit_ms"]]
    records = [x for r in runs for s in fastest_quarter(r["record_us"], statistics.median) for x in s]
    served = [x for r in runs for s in r["record_us"] for x in s]
    batches = [x for r in runs for x in fastest_quarter(r["batch_ms"])]
    metrics = {
        "fit_ms": statistics.median(fits),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "test_auc": runs[0]["test_auc"],
        "heap_peak_mb": statistics.median(r["heap_peak_mb"] for r in runs),
        "record_p50_us": nearest_rank(records, 0.50),
        "record_p99_us": nearest_rank(records, 0.99),
        "batch_ms": statistics.median(batches),
    }
    samples = {"jvms": len(runs), "fit_ms": len(fits), "record_us": len(records), "records_served": len(served),
               "record_p50_all_slices_us": nearest_rank(served, 0.50),
               "batch_ms_all": statistics.median(x for r in runs for x in r["batch_ms"]),
               "batch_ms": len(batches), "plan_variants": len({p for r in runs for p in r["plans"]})}
    return metrics, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(JVMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = json.loads(SPEC.read_text())
    cp = build.build()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        runs = [jvm(cp, "trace", args.workload, args.seed, args.seconds, 0, False, deadline)]
        values, samples = runs[0]["metrics"], {"jvms": 1}
    else:
        n = JVMS[args.workload]
        # test_auc depends only on the plan, which every JVM must share: fit it once
        runs = [jvm(cp, "run", args.workload, args.seed, args.seconds / n, math.ceil(RECORDS[args.workload] / n), i == 0, deadline)
                for i in range(n)]
        values, samples = end_to_end(runs)

    (build.OUT / "run" / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs))
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # one plan per run on the local engine, whichever JVM fitted it
    if args.workload != "spark-fit":
        attempted += 1
        if len({p for r in runs for p in r["plans"]}) != 1:
            failures.append("local plans differ between fits")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    attempted += 1
    if missing:
        failures.append(f"metrics not reported: {missing}")

    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": runs[0]["machine"],
                      "samples": samples, "failures": failures[:10]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
