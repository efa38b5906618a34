#!/usr/bin/env python3
"""Repeat the benchmark and judge how well it repeats.

Run through `benchmark/run.sh --steady | --spread | --check`, which builds
first and passes the benchmark command after `--`.

  steady  ten runs of each workload, each with another seed; per end-to-end
          metric the distance between the quartiles as a share of the median
          (the acceptance rule of the benchmark contract). Fails if a spread
          other than setup_s's exceeds the metric's bound.
          -> results/steady.json
  spread  five back-to-back run sets on seed 42; per metric (max-min)/median.
          -> results/spread.json
  check   two run sets of the same build, three runs per workload each,
          medians compared metric by metric against the bounds. Fails on
          disagreement. -> results/baseline.json
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
# What stands behind each workload's metrics, as its last run printed it.
SAMPLES = {}


def run(bench, workload, seed):
    cmd = bench + ["--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    SAMPLES[workload] = next(l[9:] for l in p.stdout.splitlines() if l.startswith("samples: "))
    print(f"  {workload} seed {seed}: {time.time() - t:.1f} s  " + "  ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def run_set(bench, seeds):
    """{workload: {metric: [value per seed]}}"""
    out = {}
    for w in WORKLOADS:
        rows = [run(bench, w, s) for s in seeds]
        out[w] = {m: [r[m] for r in rows] for m in E2E}
    return out


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    delta = (second - first) / first
    return delta if E2E[metric]["better"] == "lower" else -delta


def context():
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout.strip())
    cpu = [l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")]
    mem_kb = int(open("/proc/meminfo").readline().split()[1])
    return {
        "git_rev": rev + ("+uncommitted" if dirty else ""),
        "nproc": os.cpu_count(),
        "cpu": cpu[0] if cpu else "unknown",
        "mem_gib": round(mem_kb / 2**20, 1),
        "kernel": os.uname().release,
        "run_seconds": SPEC["run_seconds"],
        "samples_per_run": SAMPLES,
        "date": time.strftime("%Y-%m-%d"),
    }


def save(name, doc):
    path = os.path.join(HERE, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def steady(bench):
    data = run_set(bench, range(1, 11))
    doc, bad = {"context": context(), "seeds": list(range(1, 11)), "workloads": {}}, []
    for w, metrics in data.items():
        doc["workloads"][w] = {}
        for m, values in metrics.items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            doc["workloads"][w][m] = {"median": q2, "iqr_over_median": spread, "bound": E2E[m]["bound"], "values": values}
            flag = ""
            if m != "setup_s" and spread > E2E[m]["bound"]:
                bad.append((w, m))
                flag = "  EXCEEDS BOUND"
            elif spread > E2E[m]["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"{w:17} {m:24} median {q2:12.5g}  iqr/median {spread:7.4f}  bound {E2E[m]['bound']}{flag}")
    save("steady.json", doc)
    return 1 if bad else 0


def spread(bench):
    sets = [run_set(bench, [42]) for _ in range(5)]
    doc = {"context": context(), "run_sets": 5, "seed": 42, "workloads": {}}
    for w in WORKLOADS:
        doc["workloads"][w] = {}
        for m in E2E:
            values = [s[w][m][0] for s in sets]
            med = statistics.median(values)
            rng = (max(values) - min(values)) / med if med else 0.0
            doc["workloads"][w][m] = {"median": med, "range_over_median": rng, "within_a_tenth": rng <= 0.1, "values": values}
            print(f"{w:17} {m:24} median {med:12.5g}  (max-min)/median {rng:7.4f}{'' if rng <= 0.1 else '  UNRESOLVED'}")
    save("spread.json", doc)
    return 0


def check(bench):
    seeds = [42, 43, 44]
    first, second = run_set(bench, seeds), run_set(bench, seeds)
    doc, bad = {"context": context(), "seeds": seeds, "runs_per_metric": len(seeds), "workloads": {}}, []
    for w in WORKLOADS:
        doc["workloads"][w] = {}
        for m in E2E:
            a, b = statistics.median(first[w][m]), statistics.median(second[w][m])
            gap = max(worse_by(m, a, b), worse_by(m, b, a)) if a and b else 0.0
            ok = gap <= E2E[m]["bound"]
            if not ok:
                bad.append((w, m))
            doc["workloads"][w][m] = {"unit": E2E[m]["unit"], "first": a, "second": b, "gap": gap, "bound": E2E[m]["bound"], "agree": ok}
            print(f"{w:17} {m:24} {a:12.5g} {b:12.5g}  gap {gap:7.4f}  bound {E2E[m]['bound']}{'' if ok else '  DISAGREE'}")
    save("baseline.json", doc)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--" or sys.argv[1] not in ("steady", "spread", "check"):
        sys.exit(__doc__)
    sys.exit({"steady": steady, "spread": spread, "check": check}[sys.argv[1]](sys.argv[3:]))
