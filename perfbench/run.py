"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload two_stage_mcar --seed 0 --seconds 30 --trace 0

With `--trace 0` it prints the end-to-end metrics of an untraced run;
with `--trace 1` the per-layer metrics of a traced run. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload, each in its
own process, and merges their results under `<workload>.<metric>`.
The program under test is imported from `src/` of the checkout this
file sits in; without it the run exits non-zero without a result.
"""

import os

# pinned before numpy is imported anywhere, so pool workers inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    src = ROOT / "src"
    if not (src / "setfusion" / "__init__.py").is_file():
        sys.exit(f"perfbench: no setfusion sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import setfusion

    if Path(setfusion.__file__).resolve().parent != (src / "setfusion").resolve():
        sys.exit(f"perfbench: imported setfusion from {setfusion.__file__}, not {src}")


def _run_all(args, names) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import workloads

    if args.workload == "all":
        print(json.dumps(_run_all(args, list(workloads.WORKLOADS))))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")

    env = workloads.environment(args.workload, args.seed)
    print("env " + json.dumps(env), flush=True)
    if args.trace:
        result = workloads.measure_traced(args.workload, args.seed)
    else:
        result = workloads.measure(args.workload, args.seed, args.seconds)
    notes = result.pop("notes")
    print("notes " + json.dumps(notes))
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
