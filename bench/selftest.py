"""Self-test of the benchmark.

    python3 bench/selftest.py

A minimal-size run of every workload, untraced and traced, must succeed and
print every metric BENCHMARK.json names, with its unit.  Runs against a
deliberately corrupted determinism record must report failures, not pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SMALL_GEN = "0:20"  # recorded in expected.json next to the default range


def run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--seconds", "1", "--gen-seeds", SMALL_GEN, *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # every workload run.py has, also those BENCHMARK.json leaves out
    for name in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, result = run("--workload", name, "--trace", trace)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1 and got == want)
            print(f"{'PASS' if ok else 'FAIL'} {name} trace {trace}: "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"{len(got)} metrics")
            if not ok:
                problems.append(f"{name} trace {trace}")

    expected = json.loads((BENCH / "expected.json").read_text())
    expected["tiling_33x32"]["steps"] += 1
    expected["gen_sweep"][SMALL_GEN]["leaves"][0] += 1
    corrupted = BENCH / "out" / "corrupted-expected.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(expected))
    for name in ("tiling_33x32", "gen_sweep"):
        code, result = run("--workload", name, "--expected", str(corrupted))
        ok = code != 0 and not result["correct"] and result["failed"] >= 1
        print(f"{'PASS' if ok else 'FAIL'} {name} against a corrupted record: "
              f"correct={result['correct']}, {result['failed']} failed")
        if not ok:
            problems.append(f"{name} corrupted record passed")
    corrupted.unlink()

    print("selftest:", "FAILED " + ", ".join(problems) if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
