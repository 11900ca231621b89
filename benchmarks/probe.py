"""Child-process probes of the benchmark.

    python3 benchmarks/probe.py setup CONFIG...
        import specsense.cli and parse each config, as every CLI call does;
        the parent times the whole process.
    python3 benchmarks/probe.py pass WORKLOAD SEED WORKDIR [--tiny]
        run one pass of a workload and print the process's peak resident
        memory in MB as the last line.

The parent sets PYTHONPATH to the checkout's `src` and pins BLAS/OpenMP
threads; a probe inherits both.
"""

import sys


def setup(configs):
    import specsense.cli  # noqa: F401  (the import is what is measured)
    from specsense.config import load_experiment

    for path in configs:
        load_experiment(path)


def one_pass(workload, seed, work_dir, tiny):
    import resource
    from pathlib import Path

    from workloads import build_plan, run_pass

    work_dir = Path(work_dir)
    plan = build_plan(workload, int(seed), work_dir / "configs", tiny)
    result = run_pass(plan, work_dir / "out")
    if result.failed:
        print("\n".join(result.failed), file=sys.stderr)
        return 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(peak_kb / 1024.0)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest)
    elif mode == "pass":
        sys.exit(one_pass(rest[0], rest[1], rest[2], "--tiny" in rest[3:]))
    else:
        sys.exit(f"unknown probe mode {mode!r}")
