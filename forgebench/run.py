"""End-to-end benchmark of the forge CLI.

    python3 forgebench/run.py --workload {h2,vendramin,invariant,pipeline}
        --seed N --seconds S --trace {0,1}

Runs real `python -m quandleforge.cli` requests as a closed loop: one client,
one child process at a time, the next request only after the previous one
is reaped.  Inputs are built with the CLI itself (`make`, `h2 --emit-reps`,
`extend`) into .forgebench/<workload>/ at the root of the checkout; the seed
only changes the knot tables of `invariant`.  Every response is checked:
frozen records from data/expected.json, or an independent coloring count.

Passes over the workload's request list repeat until S seconds have gone,
at least one pass.  With --trace 0 the run reports, as medians over passes:
pass_s (the summed spawn-to-reap wall time of the pass's requests), cpu_s
(user + system time of those children), peak_rss_mb (the largest max-RSS of
one request), and ok_frac (requests that succeeded / attempted), plus
setup_s, the median over several builds of the inputs.  With --trace 1
untraced and traced passes alternate, and the traced ones run through
shim.py, which gives the per-layer metrics of layers.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run's context.
Both are appended to .forgebench/results.jsonl for compare.py.  The exit
code is 1 when any response is wrong, when a layer that the workload
exists to exercise reads zero, or when a request fails in a way its frozen
record does not expect.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".forgebench"
SHIM = HERE / "shim.py"
EXPECTED = HERE / "data" / "expected.json"
# set-up is short next to a pass, so it is repeated and reported as a median
SETUP_REPS = 3
# a run must end within 180 s; a child still running at this many seconds
# into the run is killed, and its request fails
DEADLINE_S = 170


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    spans: list = None


class Runner:
    """Spawns one forge child at a time and measures it with os.wait4 on its
    own pid.  RUSAGE_CHILDREN is a high-water mark over every reaped child,
    so one large request would leak into the peak RSS of all later ones."""

    def __init__(self, out_dir, deadline):
        self.out_dir = out_dir
        self.deadline = deadline
        out_dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        # The package makes no BLAS calls, but numpy's import starts OpenBLAS
        # workers that busy-wait for about 0.1 s; on a 2-core machine that
        # adds host-dependent CPU time to every request's cpu_s.
        self.env["OPENBLAS_NUM_THREADS"] = "1"

    def run(self, args, cwd, request_id=None):
        spans_file = None
        if request_id is None:
            argv = [sys.executable, "-m", "quandleforge.cli", *args]
        else:
            spans_file = self.out_dir / "spans.json"
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(SHIM), str(spans_file), request_id,
                    *args]
        out_path, err_path = self.out_dir / "stdout", self.out_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if spans_file is not None and spans_file.exists():
            spans = json.loads(spans_file.read_text())["spans"]
        return Outcome(code=proc.returncode, wall=wall,
                       cpu=usage.ru_utime + usage.ru_stime,
                       rss_mb=usage.ru_maxrss / 1024,
                       stdout=out_path.read_text(),
                       stderr=err_path.read_text(errors="replace"),
                       spans=spans)


def context(seed):
    import numpy
    import quandleforge
    digest = hashlib.sha256()
    for path in sorted((SRC / "quandleforge").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"kernel_backend": quandleforge.kernel_backend,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()}


def write_inputs(workload, directory, seed):
    """The files the benchmark itself writes: the group table of the
    tetrahedral quandle and the seeded knot tables."""
    import braids
    from workloads import KLEIN_GROUP
    directory.mkdir(parents=True)
    (directory / "klein.group").write_text(KLEIN_GROUP)
    for name, prefix, schedule in workload.knot_tables:
        (directory / name).write_text(
            braids.knot_table_text(seed, schedule, prefix))


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quandleforge" / "cli.py").is_file():
        print(f"error: no quandleforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from checks import Checker
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())

    # SIGTERM raises SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work / "out", started + DEADLINE_S)
    problems = []

    setup_s = []
    # a traced run reports no setup_s, so it builds its inputs once
    for rep in range(1 if args.trace else SETUP_REPS):
        inputs = work / f"inputs{rep}"
        write_inputs(workload, inputs, args.seed)
        checker = Checker(inputs, expected, ROOT)
        total = 0.0
        for step in workload.setup:
            out = runner.run(step.args, inputs)
            total += out.wall
            ok, problem = checker.check(step, out)
            if not ok:
                problems.append(f"set-up {problem}")
        setup_s.append(total)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    inputs = work / "inputs0"
    checker = Checker(inputs, expected, ROOT)

    attempted = failed = 0
    passes = {False: [], True: []}
    totals = layers.Totals()
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            outcomes = []
            for i, request in enumerate(workload.requests):
                rid = f"{len(passes[traced])}:{i}" if traced else None
                out = runner.run(request.args, inputs, request_id=rid)
                ok, problem = checker.check(request, out)
                attempted += 1
                failed += not ok
                if problem:
                    problems.append(problem)
                if traced:
                    if out.spans is None:
                        problems.append(f"request {rid} left no spans")
                        continue
                    totals.add(out.wall, out.spans, out.stdout)
                outcomes.append(out)
            passes[traced].append(outcomes)
        now = time.perf_counter()
        if now - start >= args.seconds or now >= runner.deadline:
            break

    def median_of(fn, traced=False):
        return statistics.median(fn(p) for p in passes[traced])

    def pass_s(p):
        return sum(o.wall for o in p)

    if args.trace:
        metrics = totals.metrics(len(passes[True]), median_of(pass_s),
                                 median_of(pass_s, True))
        units = {name: layers.unit(name) for name in layers.metric_names()}
        for name in layers.EXERCISED[args.workload]:
            if not metrics[name] > 0:
                problems.append(f"self-check: {name} reads {metrics[name]} "
                                f"on {args.workload}")
    else:
        metrics = {
            "pass_s": median_of(pass_s),
            "cpu_s": median_of(lambda p: sum(o.cpu for o in p)),
            "peak_rss_mb": median_of(lambda p: max(o.rss_mb for o in p)),
            "ok_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_s),
        }
        units = {"pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "ok_frac": "ratio", "setup_s": "s"}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    ctx = {"workload": args.workload, "trace": args.trace,
           "passes": len(passes[False]) + len(passes[True]),
           **context(args.seed)}
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"context": ctx, **result}) + "\n")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
