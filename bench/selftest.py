"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Makes one short traced run of every workload. Each traced run checks that
the untraced half installed no wrapper, that no wrapper is left on any
`starfree` module or model afterwards, and that the per-module self times
sum to the traced pass time within the wall_s bound of BENCHMARK.json.
Exits 0 when these and every other check of the runs pass, 1 otherwise.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not (run.SRC / "starfree" / "__init__.py").is_file():
        print(f"error: no program source at {run.SRC / 'starfree'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    failures = 0
    for name, workload in WORKLOADS.items():
        result = run.run_workload(workload, seed=1, seconds=2.0, trace=True, import_s=0.0)
        errors = result["rec"].errors
        print(f"{'FAIL' if errors else 'ok':4} {name}: self times cover "
              f"{result['coverage']:.1%} of traced pass time")
        for error in errors:
            print(f"     {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
