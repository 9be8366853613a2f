"""Benchmark superschur: route ladders through the CLI, and a gl(4|3) route grid.

    python3 perfbench/run.py --workload ladder_jt --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):

- ladder_jt, ladder_suzhang: `superschur char --method jt|suzhang
  --format json` on four constant-delta weights from gl(3|2) to gl(5|3),
  each in a fresh process, as a CLI user runs it.
- grid_gl43: in one process, as a library user, a seeded draw of
  constant-delta gl(4|3) weights, each through `dimension()` and every
  route that applies; the routes must agree.

Every character is checked by `checks.py`, outside the timed section.
With --trace 0 the end-to-end metrics are reported; with --trace 1 the
per-layer ones, from spans recorded by `tracer.py`.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The program is run from `src/` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (m, n, lambda, mu): outputs of 422, 23,732, 41,327 and 309,840 terms
LADDER = [
    (3, 2, (3, 2, -1), (-1, -1)),
    (4, 3, (4, 2, 0, -3), (-1, -1, -1)),
    (5, 2, (3, 2, 1, 0, -2), (-2, -2)),
    (5, 3, (3, 2, 1, 0, -2), (-2, -2, -2)),
]

# gl(4|3).  A free draw of weights costs anywhere from 5 ms to 13 s per
# route, so rounds drawn freely would differ by a factor of several
# between seeds.  Instead each round holds the same cost classes.  The
# special weights (k >= 1) are the only ones `reduction` takes, so they
# are used as they are.  The others are special weights twisted by
# j*(1,1,1,1;-1,-1,-1), with j != 0 drawn from the seed: the twist
# multiplies the character by a monomial and leaves every route's work
# the same, but no twisted weight is special.
GRID_SPECIAL = [
    ((4, 0, 0, -1), (-3, -3, -3)),    # typical, k = 3: all four routes
    ((1, 0, -2, -3), (-2, -2, -2)),   # doubly atypical, k = 2
]
GRID_TWISTED = [
    ((5, 4, 3, 3), (0, 0, 0)),        # typical; jt cancels down to few terms
    ((4, 3, 2, 0), (-1, -1, -1)),     # atypical, r = 1
    ((5, 4, 1, 0), (0, 0, 0)),        # r = 2
    ((7, 0, 0, 0), (0, 0, 0)),        # r = 3
]
TWISTS = (-3, -2, -1, 1, 2, 3)

ROUTE_METRICS = {"jt": "char_jt_s", "suzhang": "char_suzhang_s",
                 "typical": "char_typical_s", "reduction": "char_reduction_s",
                 "dim": "dim_s"}


class Tally:
    """Operations attempted, and those that raised or gave a wrong result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, label, errors=(), wrong=()):
        self.attempted += 1
        if errors or wrong:
            self.failed += 1
            self.wrong += bool(wrong)
            print(f"FAILED {label}: {(list(errors) + list(wrong))[0]}",
                  file=sys.stderr)


# -- ladders: one fresh CLI process per weight -----------------------------------


def run_cli(argv, env, spans_path=None):
    """(exit code, output, wall seconds, peak RSS in MB) of one CLI process."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "superschur.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
               *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss / 1024


def parse_character(out, m, n):
    char = json.loads(out)["character"]
    if char["arity"] != [m, n]:
        raise ValueError(f"arity {char['arity']}")
    return {tuple(t["exp2"]): int(t["coeff"]) for t in char["terms"]}


def ladder_round(method, tally, rng, env, traced):
    """Run the ladder once; returns its operations as dicts."""
    ops = []
    for i, (m, n, lam, mu) in enumerate(LADDER):
        weight = ",".join(map(str, lam)) + ";" + ",".join(map(str, mu))
        argv = ["char", "--m", str(m), "--n", str(n), "--weight", weight,
                "--method", method, "--format", "json"]
        spans_path = None
        if traced:
            spans_path = OUT / f"spans-ladder_{method}-{i}.json"
            spans_path.unlink(missing_ok=True)
        code, out, seconds, rss = run_cli(argv, env, spans_path)
        label = f"gl({m}|{n}) {weight} {method}"
        op = {"kind": method, "seconds": seconds, "rss_mb": rss, "terms": 0}
        if code != 0:
            tally.record(label, errors=[f"exit {code}: {out[-300:]!r}"])
        else:
            try:
                terms = parse_character(out, m, n)
            except (ValueError, KeyError, TypeError) as exc:
                tally.record(label, wrong=[f"unreadable output: {exc}"])
            else:
                op["terms"] = len(terms)
                tally.record(label, wrong=checks.check_character(
                    terms, m, n, lam, mu, rng))
        if traced:
            from tracer import layer_metrics
            with open(spans_path) as fh:
                record = json.load(fh)
            op["layers"] = {**layer_metrics(record["spans"]),
                            **record["caches"]}
        ops.append(op)
    return ops


# -- the gl(4|3) grid: library calls in one process --------------------------------


def grid_weights(rng):
    weights = list(GRID_SPECIAL)
    for lam, mu in GRID_TWISTED:
        j = rng.choice(TWISTS)
        weights.append((tuple(a + j for a in lam), tuple(b - j for b in mu)))
    return weights


def timed_call(fn, *args):
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:   # a failed operation is counted, and the run goes on
        return None, time.perf_counter() - start, traceback.format_exc(limit=1)
    return out, time.perf_counter() - start, None


def grid_round(tally, draw_rng, check_rng):
    from superschur import jacobi_trudi
    from superschur.weights import Weight

    ops = []
    for lam, mu in grid_weights(draw_rng):
        w = Weight(4, 3, lam, mu)
        label = f"gl(4|3) {w}"
        routes = ["jt", "suzhang"]
        if checks.is_typical(4, 3, lam, mu):
            routes.append("typical")
        if checks.sigma_normalize(4, lam, mu)[0] == 0:
            routes.append("reduction")

        # module attributes are looked up at call time, so that a traced
        # round goes through the wrappers
        dim, seconds, err = timed_call(jacobi_trudi.dimension, w)
        ops.append({"kind": "dim", "seconds": seconds, "terms": 0})
        want = checks.jt_dimension(4, 3, lam, mu)
        tally.record(f"{label} dim", errors=[err] if err else [],
                     wrong=[] if err or dim == want else
                     [f"dimension {dim} != determinant {want}"])
        chars = {}
        for route in routes:
            poly, seconds, err = timed_call(jacobi_trudi.character, w, route)
            ops.append({"kind": route, "seconds": seconds,
                        "terms": len(poly.terms) if poly else 0})
            if err:
                tally.record(f"{label} {route}", errors=[err])
            else:
                chars[route] = poly
        polys = list(chars.values())
        agree, seconds, err = timed_call(
            lambda: all(p == polys[0] for p in polys[1:]))
        ops.append({"kind": "agree", "seconds": seconds, "terms": 0})

        # checks, untimed: (a)-(c) on the first character, (d) on the rest
        terms = {route: poly.terms for route, poly in chars.items()}
        first = next(iter(terms), None)
        odd = checks.check_agree(terms)
        fails = (checks.check_character(terms[first], 4, 3, lam, mu, check_rng)
                 if terms else [])
        for route in terms:
            tally.record(f"{label} {route}", wrong=[
                f"differs from {first}"] if route in odd else fails)
        tally.record(f"{label} agree", errors=[err] if err else [],
                     wrong=[] if err or agree == (not odd) else
                     [f"program says agree={agree}"])
    return ops


# -- measuring ---------------------------------------------------------------------


def time_setup(env):
    """Wall time of a fresh interpreter importing superschur and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import superschur.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def round_seconds(ops, kind=None):
    return sum((op["seconds"] for op in ops if kind in (None, op["kind"])), 0.0)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s, peak_rss_mb):
    return {
        "setup_s": metric(setup_s, "s"),
        "total_s": metric(statistics.median(map(round_seconds, rounds)), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(plain, traced):
    """Medians over rounds: route times from plain rounds, layers from traced."""
    out = {}
    for kind, name in ROUTE_METRICS.items():
        out[name] = metric(statistics.median(
            round_seconds(ops, kind) for ops in plain), "s")
    names = traced[0]["layers"].keys()
    for name in names:
        unit = "s" if name.endswith("_s") else "count"
        out[name] = metric(statistics.median(
            r["layers"][name] for r in traced), unit)
    out["output_terms"] = metric(statistics.median(
        sum(op["terms"] for op in r["ops"]) for r in traced), "count")
    out["trace.overhead_s"] = metric(
        statistics.median(round_seconds(r["ops"]) for r in traced)
        - statistics.median(map(round_seconds, plain)), "s")
    return out


def traced_round(workload, one_round, all_spans):
    """One round with spans; ladders trace inside each CLI process."""
    if workload != "grid_gl43":
        ops = one_round(True)
        layers = {}
        for op in ops:
            for name, value in op.pop("layers").items():
                layers[name] = layers.get(name, 0) + value
        return {"ops": ops, "layers": layers}
    from tracer import Tracer, cache_delta, cache_state, layer_metrics, traced
    tracer = Tracer()
    before = cache_state()
    with traced(tracer):
        ops = one_round(True)
    all_spans.append(tracer.spans)
    return {"ops": ops, "layers": {**layer_metrics(tracer.spans),
                                   **cache_delta(before, cache_state())}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder_jt", "ladder_suzhang", "grid_gl43"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superschur" / "__init__.py").is_file():
        print(f"error: no superschur sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # building a Python program is byte-compiling it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    setup_s = time_setup(env)
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    tally = Tally()
    check_rng = random.Random(f"check-{args.seed}")
    draw_rng = random.Random(args.seed)
    trace = bool(args.trace)
    if args.workload == "grid_gl43":
        def one_round(_traced):
            return grid_round(tally, draw_rng, check_rng)
        one_round(False)   # warm-up: the grid measures warm caches
    else:
        method = args.workload.split("_", 1)[1]

        def one_round(traced):
            return ladder_round(method, tally, check_rng, env, traced)

    plain, traced_rounds = [], []
    all_spans = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(one_round(False))
        if trace:
            traced_rounds.append(
                traced_round(args.workload, one_round, all_spans))

    if trace:
        metrics = per_layer(plain, traced_rounds)
        if all_spans:
            with open(OUT / f"spans-{args.workload}.json", "w") as fh:
                json.dump(all_spans, fh)
    else:
        if args.workload == "grid_gl43":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            peak = max(op["rss_mb"] for ops in plain for op in ops)
        metrics = end_to_end(plain, setup_s, peak)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
