#!/usr/bin/env python3
"""fracext benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sections --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it imports fracext from ./src.
The case list of the workload is generated from the seed and run as a pass,
one case at a time, each checked against its oracle before the next starts.
The run makes --seconds // PASS_S passes (at least three) and
prints, as its last line, one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced pass run after the
untraced ones.  Timings are in calibrated seconds (fxbench/calib.py); the
raw ones are in the details, the line before it, with the failures, the tail
percentile used and the environment.  Everything the run writes goes under
./.perfbench_out.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One client, one thread: keep BLAS from spreading over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

try:  # glibc only; elsewhere memory is not trimmed between cases
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, AttributeError, TypeError):
    _LIBC = None

SETUP_PROBES = 3
# A pass takes 5 to 10 s of raw time on a shared 2-core Xeon VM (4 to 7
# calibrated seconds).  The number of passes is --seconds divided by PASS_S,
# not a clock check, so every run with the same --seconds has the same sample
# count.  At least three: with three runs per case the sample with ten above
# it is the middle run of one case, not the worst.
PASS_S = 8.0
MIN_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up in a fresh interpreter, print 'ready', "
                        "then the calibration scale")
    return p.parse_args(argv)


def _import_program():
    """Import fracext from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fracext", "__init__.py")):
        raise SystemExit(f"error: no fracext sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fracext
    if os.path.dirname(os.path.dirname(os.path.abspath(fracext.__file__))) != SRC:
        raise SystemExit(f"error: fracext imported from {fracext.__file__}, not {SRC}")


def setup(workload, seed, workdir):
    """Fresh interpreter to ready: import the program, generate and validate
    the workload, and run one tiny case of every kind so lazy imports and
    first-call costs land here."""
    _import_program()
    from fxbench import cases as C
    case_list = C.build_cases(workload, seed)
    C.validated_configs(case_list)
    for kind in sorted({c.kind for c in case_list}):
        d = os.path.join(workdir, f"warmup-{kind}")
        os.makedirs(d, exist_ok=True)
        C.run_case(C.tiny_case(kind), d)
        shutil.rmtree(d, ignore_errors=True)
    return case_list


def _probe_setup(args):
    """One sample of set-up time: spawn a fresh interpreter and time it until
    it reports ready.  The child then samples the calibration kernel three
    times where it ran; returns (raw seconds, calibration scale)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed, float(rest[0])


@dataclass
class Record:
    case: object
    seconds: float      # raw wall time from case start to verified outcome
    sample: int         # index of the calibration sample taken just before the case
    outcome: object
    scale: float = 1.0  # calibration factor, set once the run's samples are in

    @property
    def calibrated(self):
        return self.seconds * self.scale


def run_pass(case_list, workdir, calib, tracer=None):
    """One pass over the case list; returns its records and the bytes the
    cases wrote."""
    from fxbench import cases as C
    records = []
    written = 0
    for case in case_list:
        d = os.path.join(workdir, case.id)
        os.makedirs(d, exist_ok=True)
        sample = calib.sample()
        if tracer is not None:
            tracer.case = case.id
            with tracer.span("case"):
                t0 = time.perf_counter()
                outcome = C.run_case(case, d)
                elapsed = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            outcome = C.run_case(case, d)
            elapsed = time.perf_counter() - t0
        written += C.bytes_under(d)
        shutil.rmtree(d, ignore_errors=True)
        _release_memory()
        records.append(Record(case, elapsed, sample, outcome))
    return records, written


def _release_memory():
    """Hand freed heap back to the OS between cases, so the peak resident
    size reflects the largest case, not the order the cases ran in."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _pass_wall(records, attr="calibrated"):
    """A pass's wall time from each case's median over the passes."""
    per_case = {}
    for r in records:
        per_case.setdefault(r.case.id, []).append(getattr(r, attr))
    return sum(statistics.median(v) for v in per_case.values())


def failures(records):
    """The failing cases by id, and whether the run is correct: it is unless
    a case failed that is not a known defect."""
    from fxbench import cases as C
    out = {}
    for r in records:
        case, o = r.case, r.outcome
        if o.status != "pass" and case.id not in out:
            out[case.id] = {"kind": case.kind, "s": C.case_s(case), "status": o.status,
                            "known_defect": C.is_known_defect(case, o), "note": o.note[:200]}
    return out, all(f["known_defect"] for f in out.values())


def _lu_fill(matrices):
    import scipy.sparse.linalg as spla
    total = 0
    for _, A in matrices:
        lu = spla.splu(A.tocsc())
        total += lu.L.nnz + lu.U.nnz
    return total


def main(argv=None):
    args = _parse(argv)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            from fxbench.calib import Calibrator
            calib = Calibrator()
            for _ in range(3):
                calib.sample()
            print(calib.scale(1), flush=True)
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    case_list = setup(args.workload, args.seed, workdir)
    # Keep the objects of the set-up out of later collections: the full
    # collection between cases then takes under 1 ms instead of about 40.
    gc.freeze()
    from fxbench import report as R
    from fxbench import trace as T
    from fxbench.calib import Calibrator

    calib = Calibrator()
    # set-up time is an end-to-end metric only: a traced run does not probe it
    probes = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = max(MIN_PASSES, int(args.seconds // PASS_S))
    untraced = passes if not args.trace else max(1, passes - 1)
    records = []
    for _ in range(untraced):
        records += run_pass(case_list, workdir, calib)[0]
    tracer, traced = None, []
    if args.trace:
        tracer = T.Tracer()
        T.install_fracext_hooks(tracer)
        try:
            traced, written = run_pass(case_list, workdir, calib, tracer)
        finally:
            tracer.uninstall()
    calib.sample()  # the sample after the last case
    for r in records + traced:
        r.scale = calib.scale(r.sample)
    wall = _pass_wall(records)

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "cases_per_pass": len(case_list), "untraced_passes": untraced,
               "raw_wall_s": _pass_wall(records, "seconds"),
               "calibration_scale_median": statistics.median(r.scale for r in records)}
    if args.trace:
        records += traced
        overhead = _pass_wall(traced) - wall
        metrics = R.layer_metrics(tracer, _lu_fill(tracer.matrices), written, overhead)
        details.update(traced_wall_s=_pass_wall(traced), untraced_wall_s=wall,
                       trace_overhead_s=overhead)
    else:
        times = [r.calibrated for r in records]
        pct = R.tail_percentile(len(times))
        passed = [r.outcome for r in records if r.outcome.status == "pass"]
        ratios = [o.err_ratio for o in passed if o.err_ratio is not None]
        values = {
            "setup_s": statistics.median(raw * scale for raw, scale in probes),
            "wall_s": wall,
            "case_p50_s": statistics.median(times),
            "case_tail_s": R.nearest_rank(times, pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": len(passed) / len(records),
            "err_ratio_max": max(ratios) if ratios else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in R.END_TO_END}
        per_case = {}
        for r in records:
            per_case.setdefault(r.case.id, []).append([r.seconds, r.scale])
        details.update(setup_raw_s_and_scale=probes, tail_percentile=pct,
                       tail_samples=len(times), case_seconds_and_scale=per_case)

    failing, correct = failures(records)
    failed = sum(r.outcome.status != "pass" for r in records)
    details.update(fail_frac=failed / len(records), failures=failing,
                   environment=R.environment(ROOT, args.seed))
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, default=str)
    if tracer is not None:
        with open(os.path.join(OUT, stem + "-spans.json"), "w") as fh:
            json.dump([sp.to_json() for sp in tracer.spans], fh)
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
