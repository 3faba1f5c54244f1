"""One benchmark process: set up, run a cold pass, then WARM_PASSES warm passes.

Started by ``run.py`` in a fresh interpreter, with the program's ``src`` on
``PYTHONPATH`` and BLAS pools pinned to one thread.  It reads the plan that
``run.py`` generated from the seed, and writes its timings and the outputs of
every pass to ``--out``; the checks run in ``run.py``, outside any timed
section.  Before and after its set-up and after each pass it pauses (see
``pause``) so that ``run.py`` can time the calibration kernel.  Only the stdlib is imported
before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

clock = time.perf_counter

WARM_PASSES = 2  # warm passes after the cold pass
PAUSE = "perfbench: paused"


def pause():
    """Wait, outside any timed section, while ``run.py`` times its kernel.

    Writes ``PAUSE`` to standard output and blocks until ``run.py`` answers
    with a line on standard input.
    """
    sys.stdout.write(PAUSE + "\n")
    sys.stdout.flush()
    sys.stdin.readline()


def call_main(pboxes_cli, argv):
    """Run the CLI in-process; returns exit code, stdout without timings, rows."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pboxes_cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
    text = out.getvalue()
    lines = text.splitlines()
    rows = 0
    if lines and lines[0].startswith("query_id,"):
        # the elapsed_ms column is wall time; drop it so outputs compare exactly
        lines = [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]]
        rows = len(lines) - 1
        text = "\n".join(lines)
    return {"argv": list(argv), "code": code, "out": text, "err": err.getvalue()}, rows


class Workload:
    """Set-up and one pass of a workload, against the public pboxes API."""

    def __init__(self, plan):
        self.plan = plan

    def setup(self, pboxes):
        self.pboxes = pboxes
        import pboxes.cli
        self.cli = pboxes.cli
        if self.plan["workload"] == "casestudies":
            for name in self.plan["builtins"]:
                pboxes.builtin_scenario(name)
        self.agreement = []
        for item in self.plan.get("agreement", ()):
            lower = tuple(Fraction(v) for v in item["lower"])
            upper = tuple(Fraction(v) for v in item["upper"])
            n = len(lower)
            instance = pboxes.FiniteCredalInstance(lower, upper)
            box = pboxes.PBox(pboxes.StepCdf(tuple(float(v) for v in lower)),
                              pboxes.StepCdf(tuple(float(v) for v in upper)),
                              pboxes.FiniteQuotientSpace(tuple(range(n))))
            members = frozenset(item["event"])
            indicator = [1 if i in members else 0 for i in range(n)]
            self.agreement.append((instance, box, pboxes.ClassSubset(members),
                                   indicator, item["gamble"]))

    def run_pass(self, tracer=None):
        """One pass; returns its outputs, CSV rows emitted and checks made."""
        pb = self.pboxes
        calls, rows, checks = [], 0, 0
        for argv in self.plan["argvs"]:
            if tracer is None:
                record, n_rows = call_main(self.cli, argv)
            else:
                record, n_rows = tracer.span("cli.main", call_main, self.cli, argv)
            calls.append(record)
            rows += n_rows
            if argv[0] == "verify":
                for line in record["out"].splitlines():
                    if line.startswith("lp-agreement:"):
                        checks += int(line.rsplit(",", 1)[1].split()[0])
        pairs = []
        for instance, box, subset, indicator, gamble in self.agreement:
            for formula, args, vector in (
                    (pb.lower_prob_event, (box, subset), indicator),
                    (pb.lower_expectation_finite, (box, gamble), gamble)):
                try:
                    pairs.append([formula(*args), pb.lp_lower_expectation(instance, vector)])
                except Exception as exc:  # noqa: BLE001 - a crash is a failed check
                    pairs.append([None, f"raised {type(exc).__name__}: {exc}"])
        checks += len(pairs)
        return {"calls": calls, "pairs": pairs}, rows, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    workload = Workload(plan)
    result = {"trace": args.trace, "imports": {}}

    tracer = None
    pause()
    if args.trace:
        # numpy, then scipy.optimize, then pboxes, each timed on its own
        start = clock()
        import numpy
        result["imports"]["setup.import_numpy_s"] = clock() - start
        start = clock()
        try:
            import scipy.optimize  # noqa: F401
            result["imports"]["setup.import_scipy_s"] = clock() - start
        except ImportError:
            pass
        start = clock()
        import pboxes
        result["imports"]["setup.import_pboxes_s"] = clock() - start
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        result["trace_problems"] = tracer.check_validation_paths()
        start = clock()
        tracer.span("setup", workload.setup, pboxes)
        result["setup_s"] = sum(result["imports"].values()) + clock() - start
    else:
        start = clock()
        import pboxes
        workload.setup(pboxes)
        result["setup_s"] = clock() - start
    pause()

    records, rows, checks, times = {}, [], [], []
    for index in range(1 + WARM_PASSES):
        start = clock()
        if tracer is None:
            outputs, n_rows, n_checks = workload.run_pass()
        else:
            tracer.pass_id = index
            outputs, n_rows, n_checks = tracer.span("pass", workload.run_pass, tracer)
        times.append(clock() - start)
        pause()
        key = json.dumps(outputs, sort_keys=True)
        records[key] = records.get(key, 0) + 1
        rows.append(n_rows)
        checks.append(n_checks)

    if tracer is not None:
        tracer.uninstall()
        spans_path = args.out + ".spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = spans_path
        result["hooks"] = tracer.installed
    import numpy
    result.update({
        "first_pass_s": times[0],
        "warm_s": times[1:],
        "rows": rows,
        "checks": checks,
        "records": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": _scipy_version(), "pboxes": getattr(pboxes, "__version__", "")},
    })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _scipy_version():
    try:
        from importlib.metadata import version
        return version("scipy")
    except Exception:  # noqa: BLE001 - the version is informative only
        return "unavailable"


if __name__ == "__main__":
    sys.exit(main())
