"""specsense benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; specsense is imported from its
`src/`.  The seed generates the workload's configs, which are written
before anything runs; specsense itself only sees those configs.  Every
timed pass runs in this process with BLAS/OpenMP threads pinned to 1.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter that imports
               specsense.cli and parses the workload's configs
  wall_s       median wall time of one in-process pass, after a warm-up pass
  work_per_s   Monte Carlo trials (or closed-form points) per second
  peak_rss_mb  peak resident memory of a child process running one pass
--trace 1 runs untraced and traced passes alternately and reports the
per-layer metrics (see `layer_metrics`) and the tracing overhead.

Every pass's outputs are checked (see checks.py); failed commands and
checks are counted in `failed`, and `failed / attempted` is failed_ops.
The last line of stdout is the JSON result; details, the machine
fingerprint and the trace tables go to benchmarks/results/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_pass, csv_digests  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build_plan, run_pass  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 170

# Extra tags for the per-layer metrics, keyed by traced function.
GROUPS = {
    "numerics.gamma_sample": "sample",
    "numerics.complex_gaussian": "sample",
    "numerics.reg_upper_gamma": "gamma_tail",
    "numerics.reg_lower_gamma": "gamma_tail",
    "signals.draw_noise_power": "draw",
    "signals.channel_gain": "draw",
    "signals.generate_bins": "draw",
    "montecarlo.EmpiricalCdf.from_samples": "calibrate",
    "montecarlo.EmpiricalCdf.quantile": "calibrate",
    "montecarlo.EmpiricalCdf.evaluate": "calibrate",
    "montecarlo.wilson_interval": "calibrate",
    **{f"analysis.{fn}": "point" for fn in (
        "pfa_opt", "pd_opt", "pfa_alrd1", "pd_alrd1", "pfa_glrd1", "pd_glrd1",
        "pfa_alrd2_clt", "pd_alrd2_clt")},
}
# montecarlo functions whose self time is calibration and the ROC loop
CALIBRATE_SELF = ("montecarlo.roc_sweep_multi", "montecarlo.empirical_cdf")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class Ops:
    """Attempted and failed operations (commands, probes and checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")
            print(f"FAILED {name}: {error}", file=sys.stderr)
        return error is None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def fingerprint() -> dict:
    import numpy
    import scipy
    import specsense

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "specsense": specsense.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def median(values) -> float:
    return statistics.median(values) if values else math.inf


def measure_setup(plan, ops: Ops) -> list[float]:
    configs = sorted({str(c.config) for c in plan.commands})
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), "setup", *configs],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        dt = time.perf_counter() - t0
        ok = ops.record(f"setup probe {i}",
                        None if done.returncode == 0 else done.stderr.strip()[-500:])
        times.append(dt if ok else math.inf)
    return times


def start_rss_probe(args, work_dir: Path) -> subprocess.Popen:
    """Child process that runs one pass and prints its peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "probe.py"), "pass", args.workload,
           str(args.seed), str(work_dir / "rss")] + (["--tiny"] if args.tiny else [])
    return subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_rss_probe(proc: subprocess.Popen, ops: Ops) -> float:
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    if not ops.record("peak rss probe",
                      None if proc.returncode == 0 and lines else err.strip()[-500:]):
        return math.inf
    return float(lines[-1])


class PassRunner:
    """Runs passes of one plan, checks each one and keeps the timings."""

    def __init__(self, plan, out_dir: Path, seed: int, ops: Ops):
        self.plan, self.out_dir, self.seed, self.ops = plan, out_dir, seed, ops
        self.reference: dict[str, str | None] | None = None

    def run(self, tracer: Tracer | None = None) -> float:
        """One pass; returns its wall time, or inf if any operation failed."""
        if tracer is not None:
            tracer.install()
        try:
            result = run_pass(self.plan, self.out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed = len(result.failed)
        self.ops.attempted += self.plan.operations - failed
        for failure in result.failed:
            self.ops.record("operation", failure)
        digests = csv_digests(self.plan, self.out_dir)
        if self.reference is None:
            self.reference = digests
            for name, error in check_pass(self.plan, self.out_dir, result.averages, self.seed):
                failed += not self.ops.record(name, error)
        else:
            for name, value in digests.items():
                error = None if value is not None and value == self.reference[name] \
                    else "CSV bytes differ from the first pass at the same seed"
                failed += not self.ops.record(f"{name}: byte-identical repeat", error)
        return math.inf if failed else result.seconds


def end_to_end(args, plan, work_dir: Path, ops: Ops) -> tuple[dict, dict]:
    setup = measure_setup(plan, ops)
    runner = PassRunner(plan, work_dir / "out", args.seed, ops)
    # The warm-up pass is not timed, so the memory probe runs beside it.
    probe = start_rss_probe(args, work_dir)
    try:
        warmup = runner.run()
    finally:
        rss = finish_rss_probe(probe, ops)
    walls = []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < args.seconds:
        walls.append(runner.run())
    wall = median(walls)
    metrics = {"setup_s": median(setup), "wall_s": wall,
               "work_per_s": plan.work / wall, "peak_rss_mb": rss}
    detail = {"setup_s_samples": setup, "wall_s_samples": walls,
              "warmup_s": warmup, "work_per_pass": plan.work,
              "work_unit": plan.work_unit}
    return metrics, detail


def layer_metrics(t: Tracer, plan, passes: int) -> dict:
    """Per-layer metrics from the aggregates of `passes` traced passes.

    Per-trial values are normalised by the Monte Carlo trials of those
    passes, per-leg ones by ROC legs plus CDF tables.  A layer that does
    not run on the workload reads 0.
    """
    trials, legs, draws = plan.trials * passes, plan.legs * passes, plan.draws * passes

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    calibrate_self = sum(t.self_time(k) for k in CALIBRATE_SELF)
    calibrate = t.tag_busy("calibrate") + calibrate_self
    engine_self = t.layer_self("montecarlo") - calibrate
    return {
        "numerics.stream_setup_us_per_trial":
            per(t.busy("numerics.RngStream.generator"), trials, 1e6),
        "numerics.generators_per_trial": per(t.count("numerics.RngStream.generator"), trials),
        "numerics.sample_us_per_trial": per(t.tag_busy("sample"), trials, 1e6),
        "signals.draw_us_per_trial": per(t.tag_busy("draw"), trials, 1e6),
        "detectors.reduce_us_per_trial": per(t.tag_busy("detectors"), trials, 1e6),
        "detectors.statistic_calls_per_trial":
            per(t.count("detectors.detector_statistic"), trials),
        "montecarlo.engine_self_us_per_trial": per(engine_self, trials, 1e6),
        "montecarlo.calibrate_ms_per_leg": per(calibrate, legs, 1e3),
        "signals.waveform_us_per_trial": per(t.busy("signals.generate_time_block"), trials, 1e6),
        "observation.fft_us_per_trial": per(t.busy("observation.spectrum_bins"), trials, 1e6),
        "observation.split_us_per_trial": per(t.busy("observation.split_bands"), trials, 1e6),
        "observation.envelope_us_per_trial":
            per(t.busy("observation.squared_envelope"), trials, 1e6),
        "observation.band_split_calls_per_leg":
            per(t.count("observation.band_split_indices"), legs),
        "analysis.point_us": per(t.tag_busy("point"), t.tag_count("point"), 1e6),
        "analysis.prior_avg_us_per_draw":
            per(t.busy("analysis.average_over_prior"), draws, 1e6),
        "numerics.gamma_tail_us_per_call":
            per(t.tag_busy("gamma_tail"), t.tag_count("gamma_tail"), 1e6),
        "numerics.gamma_tail_calls": per(t.tag_count("gamma_tail"), passes),
        "numerics.q_us_per_call":
            per(t.busy("numerics.q_function"), t.count("numerics.q_function"), 1e6),
        "config.load_ms": per(t.busy("config.load_experiment"),
                              t.count("config.load_experiment"), 1e3),
        "cli.output_ms": per(t.layer_self("cli"), t.count("cli.main"), 1e3),
    }


LAYER_UNITS = {
    "numerics.generators_per_trial": "count",
    "detectors.statistic_calls_per_trial": "count",
    "observation.band_split_calls_per_leg": "count",
    "numerics.gamma_tail_calls": "count",
    "montecarlo.calibrate_ms_per_leg": "ms",
    "config.load_ms": "ms",
    "cli.output_ms": "ms",
    "tracing_overhead_pct": "%",
    "unaccounted_pct": "%",
}


def traced(args, plan, work_dir: Path, ops: Ops) -> tuple[dict, dict]:
    tracer = Tracer("specsense", GROUPS)
    runner = PassRunner(plan, work_dir / "out", args.seed, ops)
    warmup = runner.run()
    plain, spans = [], []
    t0 = time.perf_counter()
    pair = 0.0
    # stop before a pair of passes would overrun the measuring time
    while not spans or time.perf_counter() - t0 + pair <= args.seconds:
        t1 = time.perf_counter()
        plain.append(runner.run())
        spans.append(runner.run(tracer))
        pair = time.perf_counter() - t1
    metrics = layer_metrics(tracer, plan, len(spans))
    untraced, traced_wall = median(plain), median(spans)
    metrics["tracing_overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
    total = sum(spans)
    metrics["unaccounted_pct"] = 100.0 * (total - tracer.top_busy) / total
    shares = {layer: 100.0 * tracer.layer_self(layer) / total for layer in LAYERS}
    shares["unaccounted"] = metrics["unaccounted_pct"]
    detail = {"warmup_s": warmup, "untraced_wall_s_samples": plain,
              "traced_wall_s_samples": spans, "layer_self_share_pct": shares,
              "trace": tracer.table(), "trials_per_pass": plan.trials,
              "legs_per_pass": plan.legs}
    return metrics, detail


def finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "specsense" / "__init__.py").is_file():
        print(f"benchmark: no specsense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specsense
    if Path(specsense.__file__).resolve().parent != SRC / "specsense":
        print(f"benchmark: imported specsense from {specsense.__file__}", file=sys.stderr)
        return 2

    work_dir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    ops = Ops()
    try:
        plan = build_plan(args.workload, args.seed, work_dir / "configs", args.tiny)
        if args.trace:
            metrics, detail = traced(args, plan, work_dir, ops)
            units = {name: LAYER_UNITS.get(name, "us") for name in metrics}
        else:
            metrics, detail = end_to_end(args, plan, work_dir, ops)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": finite(v), "unit": units[k]} for k, v in metrics.items()},
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "fingerprint": fingerprint(),
              "failed_ops": len(ops.failures) / ops.attempted, "failures": ops.failures,
              "result": result, "detail": detail}
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
