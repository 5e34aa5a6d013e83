#!/usr/bin/env python3
"""Benchmark for mfbcs: seeded workloads through ``mfbcs.cli.main``.

Run from the root of a source checkout (it imports ``src/mfbcs``):

    python3 perfbench/run.py --workload converge-mixed --seed 0 --seconds 20 --trace 0

One process, one client, closed loop: each CLI command finishes before the
next starts.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, the environment and the config
digests.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9

# fresh-process set-up: import the CLI and parse every config of the workload
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mfbcs.cli import parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
print(repr(time.perf_counter() - t0))
"""


def _cap_blas_threads() -> int:
    """Cap the BLAS/OpenMP thread count at nproc, before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _environment(root: str, nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env=env, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "mfbcs")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for ln in fh if ln.strip())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_nonblank_lines": src_lines,
    }


def _measure_setup(src: str, config_paths: list) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, src, *config_paths],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _clear_caches(modules) -> None:
    # each pass computes what a fresh CLI process would: no memo carried over
    for module in modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Runner:
    """Runs passes over one workload's command sequence and gates them."""

    def __init__(self, commands, workdir: str, gate_mod) -> None:
        import mfbcs.cli

        self.cli = mfbcs.cli
        self.modules = [m for k, m in sys.modules.items() if k.startswith("mfbcs")]
        self.commands = commands
        self.gate_mod = gate_mod
        self.gate = gate_mod.Gate()
        self.paths = []
        for cmd in commands:
            config_path = os.path.join(workdir, f"{cmd.label}.yaml")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(cmd.text)
            self.paths.append((config_path, os.path.join(workdir, f"{cmd.label}.csv")))
        self.output_bytes = 0

    def run_pass(self) -> float:
        """One timed pass; the gate's cheap checks follow, untimed."""
        _clear_caches(self.modules)
        for _, out_path in self.paths:
            for path in (out_path, out_path + ".meta.yaml"):
                if os.path.exists(path):
                    os.remove(path)
        results = []
        start = time.perf_counter()
        for cmd, (config_path, out_path) in zip(self.commands, self.paths):
            log = io.StringIO()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = self.cli.main(cmd.argv(config_path, out_path))
                error = "" if rc == 0 else log.getvalue()[-300:]
            except (Exception, SystemExit) as exc:  # counted as a failed invocation
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            results.append((rc, error))
        elapsed = time.perf_counter() - start
        self.output_bytes = 0
        for cmd, (rc, error), (_, out_path) in zip(self.commands, results, self.paths):
            out = self.gate_mod.read_output(rc, error, out_path)
            self.output_bytes += out.nbytes
            self.gate.record(cmd, out)
        return elapsed

    def run_for(self, seconds: float, before_pass=None) -> list:
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            if before_pass:
                before_pass(len(samples))
            samples.append(self.run_pass())
        return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mfbcs", "cli.py")):
        print(f"error: no src/mfbcs under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path[:0] = [HERE, src]
    import gate as gate_mod
    import spans as trace_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, ".perfbench_work", f"{tag}-{os.getpid()}")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        runner = Runner(commands, workdir, gate_mod)
        if not os.path.abspath(runner.cli.__file__).startswith(src + os.sep):
            print(f"error: imported {runner.cli.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2
        # set-up is an end-to-end metric; a traced run reports per-layer ones
        setup_samples = [] if args.trace else _measure_setup(src, [p for p, _ in runner.paths])
        one_pass = args.workload in workloads.ONE_PASS
        report = _measure(args, runner, trace_mod, setup_samples, outdir, tag, one_pass)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner.gate.finish()
    probe = gate_mod.self_test(commands[0], runner.gate.reference[commands[0].label])
    self_test_ok = probe.attempted == 1 and probe.failed == 1
    attempted, failed = runner.gate.attempted, runner.gate.failed

    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(root, nproc),
        "configs": {c.label: {"sha256": c.digest(), "text": c.text} for c in commands},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": runner.gate.problems,
        "self_test": {"corrupted_output_counted_as_failure": self_test_ok,
                      "problems": probe.problems},
    })
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in report["environment"].items():
        print(f"# env {key}: {value}")
    for label, info in report["configs"].items():
        print(f"# config {label} sha256 {info['sha256']}")
    print(f"# gate: {attempted} invocations, {failed} failed, fail_frac {failed / attempted!r}")
    for problem in runner.gate.problems[:10]:
        print(f"# gate problem: {problem}")
    print(f"# gate self-test (one corrupted value counted as failure): "
          f"{'yes' if self_test_ok else 'NO'}")
    for name, entry in report["all_metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    result = {
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure(args, runner, trace_mod, setup_samples, outdir, tag, one_pass: bool) -> dict:
    """Warm-up pass, timed passes, then (with --trace 1) traced passes."""
    warm_up_s = None if one_pass else runner.run_pass()
    seconds = 0.0 if one_pass else args.seconds
    samples = runner.run_for(seconds)
    run_s = statistics.median(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "run_s": _metric(run_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    if setup_samples:
        end_to_end = {"setup_s": _metric(statistics.median(setup_samples), "s"), **end_to_end}
    report = {"warm_up_s": warm_up_s, "run_s_samples": samples,
              "setup_s_samples": setup_samples, "output_bytes": runner.output_bytes}
    if not args.trace:
        report["metrics"] = end_to_end
        report["all_metrics"] = {**end_to_end, "run_s.samples": _metric(len(samples), "count")}
        return report

    recorder = trace_mod.Recorder()
    uninstall = trace_mod.install(recorder)
    try:
        def set_pass(i):
            recorder.pass_id = i

        traced = runner.run_for(seconds, before_pass=set_pass)
    finally:
        uninstall()
    layers = trace_mod.layer_metrics(recorder, list(range(len(traced))))
    layers["cli.output_bytes"] = runner.output_bytes
    layers["trace.overhead_s"] = statistics.median(traced) - run_s
    trace_mod.dump_spans(recorder, os.path.join(outdir, f"{tag}.spans.jsonl"))
    per_layer = {k: _metric(v, trace_mod.unit_of(k)) for k, v in layers.items()}
    report["traced_run_s_samples"] = traced
    report["all_metrics"] = {
        **end_to_end,
        "run_s.samples": _metric(len(samples), "count"),
        "traced_run_s": _metric(statistics.median(traced), "s"),
        **per_layer,
    }
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    report["metrics"] = {k: per_layer[k] for k in listed}
    return report


if __name__ == "__main__":
    sys.exit(main())
