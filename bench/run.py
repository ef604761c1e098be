"""srgrowth benchmark: one workload of real CLI runs on a seeded corpus.

Usage, from the repository root::

    python3 bench/run.py --workload study --seed 1 --seconds 36 --trace 0

Workloads (see ``corpus.WORKLOADS`` for their sizes):

* ``study``: the paper's use case, ``ingest -> trend -> fit -> compare ->
  rank`` over nine projects grouped by domain, at the default search budget.
* ``long_series``: ``ingest -> trend -> fit --budget 500`` over three long
  series, where per-point costs and search memory show.
* ``mining``: ``ingest --title-match -> trend --group-by releases`` over six
  large exports and 24 monthly release windows; no fitting.

The benchmark writes the corpus for ``--seed`` under ``.bench_work/``, times
a fresh-interpreter ``import srgrowth.cli`` (set-up), then runs the verb
sequence as child processes, one verb at a time, until ``--seconds`` have
passed (at least three times), and reports medians.  The outputs of the
first sequence are checked against the generator's expectations (see
``checks.py``); every later sequence must write a byte-identical output
tree.  Fitting workloads also fit the corpus of the reference seed and
compare each final RSS with ``quality.json``: a worse fit fails the run.

``--trace 1`` alternates plain and traced sequences (``tracer.py``) and
reports per-layer metrics instead of end-to-end ones; the spans are
written to ``.bench_work/<workload>/spans.jsonl``.  Per-layer metrics of a
layer a workload does not exercise read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (verbs run), ``failed`` (verbs that exited
non-zero or wrote a wrong output) and ``metrics``.  The exit code is 0 for
a correct run, 1 for a run with a wrong output, and 2 when the program's
sources are missing.  ``--record-quality`` rewrites ``quality.json`` from
the current code instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Children run with one BLAS/OpenMP thread, so that neither the fits'
# low digits nor the timings depend on the host's default thread count.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from corpus import WORKLOADS, Corpus, make_corpus  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
QUALITY = BENCH / "quality.json"

REFERENCE_SEED = 0        # seed of the corpora quality.json was recorded on
MIN_SEQUENCES = 3         # plain sequences per run; 2 each with --trace 1
SETUP_FIRST = 4           # set-up samples before the first sequence
VERB_TIMEOUT_S = 150.0
KERNEL_SECONDS = 0.05     # per model and kernel
FIT_BUDGET = {"long_series": 500}
VERBS = {
    "study": ("ingest", "trend", "fit", "compare", "rank"),
    "long_series": ("ingest", "trend", "fit"),
    "mining": ("ingest", "trend"),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "issues_per_s": "1/s",
    "fits_per_s": "1/s",
    "quality.worse_fits": "count",
    "quality.rss_ratio_gmean": "ratio",
    "failed_ratio": "ratio",
    "trace.overhead_s": "s",
    **{f"cli.{verb}_s": "s" for verb in VERBS["study"]},
    **{f"{layer}.self_s": "s" for layer in metrics.LAYERS},
    "pipeline.parse_s": "s",
    "pipeline.parse_issues": "count",
    "pipeline.parse_skipped": "count",
    "pipeline.filter_s": "s",
    "pipeline.filter_kept_ratio": "ratio",
    "pipeline.series_s": "s",
    "pipeline.segments_dropped": "count",
    "fitting.search_s": "s",
    "fitting.search_draws": "count",
    "fitting.search_point_evals_per_s": "1/s",
    "fitting.search_share": "ratio",
    "fitting.refine_s": "s",
    "fitting.refine_iterations": "count",
    "fitting.refine_converged_ratio": "ratio",
    "fitting.refine_rss_gain_gmean": "ratio",
    "fitting.placeholder_fits": "count",
    "fitting.at_bound_params": "count",
    "models.mean_evals_per_s": "1/s",
    "models.grad_evals_per_s": "1/s",
    "reporting.write_s": "s",
    "reporting.bytes_written": "bytes",
    "reporting.nonfinite_json_tokens": "count",
    "stats.laplace_s": "s",
    "stats.compare_s": "s",
    "stats.rank_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class VerbRun:
    wall_s: float
    max_rss_mb: float
    returncode: int


def run_verb(argv: list[str], stderr_path: Path, spans: tuple[Path, str] | None = None) -> VerbRun:
    """Run one CLI verb as a child process and wait for it to end."""
    if spans is None:
        cmd = [sys.executable, "-m", "srgrowth", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans[0]), spans[1], *argv]
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return VerbRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def import_time() -> float:
    """One fresh-interpreter ``import srgrowth.cli``, timed inside the child."""
    code = "import time; t = time.perf_counter(); import srgrowth.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=VERB_TIMEOUT_S, check=True)
    return float(done.stdout.strip())


def source_key() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def verb_args(corpus: Corpus, verb: str, out: Path) -> list[str]:
    def rel(path: Path) -> str:
        return path.relative_to(ROOT).as_posix()

    ndjson = [rel(out / "ingest" / f"{p.name}.ndjson") for p in corpus.projects]
    target = ["--out", rel(out / verb), "--format", "csv,json"]
    grouping = []
    if corpus.attributes is not None:
        grouping = ["--group-by", "domain", "--attributes", rel(corpus.attributes)]
    elif corpus.releases is not None:
        grouping = ["--group-by", "releases", "--releases", rel(corpus.releases)]
    if verb == "ingest":
        flags = ["--title-match"] if corpus.spec.title_match else []
        return ["ingest", "--issues", *map(rel, corpus.exports), *flags, *target]
    if verb == "trend":
        return ["trend", "--issues", *ndjson, *grouping, *target]
    if verb == "fit":
        budget = ["--budget", str(FIT_BUDGET[corpus.workload])] if corpus.workload in FIT_BUDGET else []
        return ["fit", "--issues", *ndjson, *grouping, *budget, *target]
    return [verb, "--fits", rel(out / "fit"), *target]


def check_verb(corpus: Corpus, verb: str, out: Path) -> list[str]:
    segments = {p.category for p in corpus.projects}
    try:
        if verb == "ingest":
            return checks.check_ingest(corpus, out)
        if verb == "trend":
            return checks.check_trend(corpus, out)
        if verb == "fit":
            return checks.check_fit(corpus, out)
        if verb == "compare":
            return checks.check_compare(segments, out)
        return checks.check_rank(segments, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{verb}: output unreadable ({type(exc).__name__}: {exc})"]


@dataclass
class Sequence:
    walls: dict[str, float]
    max_rss_mb: float
    digests: dict[str, str]
    spans: list[list[dict]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


class Runner:
    """Runs verb sequences on one corpus and keeps count of what failed."""

    def __init__(self, corpus: Corpus, work: Path, verbs: tuple[str, ...]):
        self.corpus = corpus
        self.work = work
        self.verbs = verbs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.nonfinite_json = 0

    def sequence(self, label: str, check: bool, trace: bool = False) -> Sequence | None:
        """One pass over the verbs; None when a verb exits non-zero."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seq = Sequence(walls={}, max_rss_mb=0.0, digests={})
        for verb in self.verbs:
            spans = None
            if trace:
                spans = (self.work / "spans" / f"{label}-{verb}.jsonl", label)
                spans[0].parent.mkdir(exist_ok=True)
            run = run_verb(verb_args(self.corpus, verb, out), self.work / "stderr.log", spans)
            self.attempted += 1
            if run.returncode != 0:
                self.failed += 1
                self.problems.append(f"{label}: {verb} exited with {run.returncode} (see stderr.log)")
                return None
            seq.walls[verb] = run.wall_s
            seq.max_rss_mb = max(seq.max_rss_mb, run.max_rss_mb)
            seq.digests[verb] = checks.tree_digest(out / verb)
            if check:
                found, nonfinite = checks.parse_tree(out / verb)
                found += check_verb(self.corpus, verb, out / verb)
                self.nonfinite_json += nonfinite
                if found:
                    self.failed += 1
                    self.problems += [f"{label}: {p}" for p in found]
            if spans is not None:
                with open(spans[0], encoding="utf-8") as handle:
                    seq.spans.append([json.loads(line) for line in handle])
        return seq

    def compare_outputs(self, label: str, first: Sequence, seq: Sequence) -> None:
        for verb, digest in seq.digests.items():
            if digest != first.digests[verb]:
                self.failed += 1
                self.problems.append(f"{label}: {verb} output differs from the first sequence")


def quality_pass(workload: str, work: Path) -> tuple[Runner, dict | None, str]:
    """Fit the reference-seed corpus; returns its final RSS table and digest."""
    corpus = make_corpus(workload, REFERENCE_SEED, work / "corpus")
    runner = Runner(corpus, work, ("ingest", "fit"))
    seq = runner.sequence("quality", check=True)
    if seq is None:
        return runner, None, ""
    return runner, checks.read_rss(work / "out" / "fit"), seq.digests["fit"]


def cached_quality_pass(workload: str, runner: Runner) -> tuple[dict | None, str]:
    """The quality pass, run once per version of the sources: its result
    depends on nothing else, and a pass with a wrong output is not kept."""
    cache = WORK / "quality" / f"{workload}-{source_key()}.json"
    if cache.exists():
        kept = json.loads(cache.read_text())
        table = {s: {m: math.nan if v is None else v for m, v in row.items()} for s, row in kept["rss"].items()}
        return table, kept["digest"]
    work = WORK / "quality" / workload
    shutil.rmtree(work, ignore_errors=True)
    quality_runner, table, digest = quality_pass(workload, work)
    runner.attempted += quality_runner.attempted
    runner.failed += quality_runner.failed
    runner.problems += quality_runner.problems
    if table is not None and not quality_runner.problems:
        rss = {s: {m: v if math.isfinite(v) else None for m, v in row.items()} for s, row in table.items()}
        cache.write_text(json.dumps({"rss": rss, "digest": digest}))
    return table, digest


def quality_metrics(workload: str, runner: Runner) -> tuple[int, float]:
    """Worse fits and RSS ratio of the reference corpus against quality.json."""
    reference = json.loads(QUALITY.read_text()).get(workload) if QUALITY.exists() else None
    if reference is None:
        runner.problems.append(f"quality: quality.json has no reference for {workload}")
        reference = {}
    table, digest = cached_quality_pass(workload, runner)
    if table is None:
        return 0, 0.0
    print(f"quality fit digest {digest}", file=sys.stderr)
    worse, ratio = metrics.fit_quality(table, reference)
    if worse:
        runner.failed += 1  # the fit of the reference corpus failed its check
        runner.problems.append(f"quality: {worse} fits worse than quality.json")
    return worse, ratio


def kernel_rates(corpus: Corpus) -> tuple[float, float]:
    """Points per second through ``models.mean_value`` and
    ``models.gradient`` over the workload's series, at the geometric middle
    of each model's search bounds."""
    sys.path.insert(0, str(SRC))
    from srgrowth import models

    series = [t for t, _ in corpus.expected_series().values()]
    rates = []
    for kernel in (models.mean_value, models.gradient):
        points = 0
        elapsed = 0.0
        for model in models.MODEL_ORDER:
            cases = []
            for t in series:
                lo, hi = models.search_bounds(model, t.size)
                cases.append((np.sqrt(lo * hi), t))
            start = time.perf_counter()
            calls = 0
            while time.perf_counter() - start < KERNEL_SECONDS:
                params, t = cases[calls % len(cases)]
                kernel(model, params, t)
                points += t.size
                calls += 1
            elapsed += time.perf_counter() - start
        rates.append(points / elapsed)
    return rates[0], rates[1]


def measure(runner: Runner, args) -> tuple[list[Sequence], list[Sequence], float]:
    """Plain (and with --trace 1, traced) sequences filling the window, and
    the median set-up time."""
    import_time()  # the first import also compiles bytecode
    setup_times = [import_time() for _ in range(SETUP_FIRST)]

    # Sequences run until the window is used up (the last may overrun it by
    # half a sequence), each followed by one more set-up sample, so that
    # both medians cover the whole window rather than one moment of it.
    plain: list[Sequence] = []
    traced: list[Sequence] = []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        enough = len(traced) >= 2 if args.trace else len(plain) >= MIN_SEQUENCES
        typical = metrics.median(s.wall_s for s in plain)
        if enough and not trace and time.perf_counter() - start + typical / 2 >= args.seconds:
            break
        label = f"{args.workload}-{args.seed}-{len(plain) + len(traced) + 1}"
        seq = runner.sequence(label, check=not plain and not traced, trace=trace)
        if seq is None:
            break
        (traced if trace else plain).append(seq)
        runner.compare_outputs(label, plain[0], seq)
        setup_times.append(import_time())
    return plain, traced, metrics.median(setup_times)


def record_quality(workload: str) -> int:
    work = WORK / "quality" / workload
    shutil.rmtree(work, ignore_errors=True)
    runner, table, _ = quality_pass(workload, work)
    if table is None or runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    reference = json.loads(QUALITY.read_text()) if QUALITY.exists() else {}
    reference[workload] = {
        series: {m: (v if np.isfinite(v) else None) for m, v in models.items()}
        for series, models in sorted(table.items())
    }
    QUALITY.write_text(json.dumps(reference, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"recorded {sum(len(m) for m in table.values())} fits of {workload} at seed {REFERENCE_SEED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-quality", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "srgrowth" / "cli.py").is_file():
        print(f"error: the srgrowth sources are missing ({SRC / 'srgrowth'})", file=sys.stderr)
        return 2
    if args.record_quality:
        return record_quality(args.workload)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = make_corpus(args.workload, args.seed, work / "corpus")
    verbs = VERBS[args.workload]
    runner = Runner(corpus, work, verbs)
    plain, traced, setup_s = measure(runner, args)

    for seq in plain:
        print("sequence " + " ".join(f"{v}={t:.3f}" for v, t in seq.walls.items()), file=sys.stderr)
    fits = len(corpus.expected_series()) * len(checks.MODELS) if "fit" in verbs else 0
    e2e = {
        "setup_s": setup_s,
        "wall_s": metrics.median(s.wall_s for s in plain),
        "peak_rss_mb": max((s.max_rss_mb for s in plain), default=0.0),
    }
    layer = {
        "issues_per_s": metrics.median(corpus.raw_issues / (s.walls["ingest"] + s.walls["trend"]) for s in plain),
        "fits_per_s": metrics.median(fits / s.walls["fit"] for s in plain) if fits else 0.0,
        "reporting.nonfinite_json_tokens": runner.nonfinite_json,
        **{f"cli.{verb}_s": metrics.median(s.walls.get(verb, 0.0) for s in plain) for verb in VERBS["study"]},
    }

    worse, ratio = quality_metrics(args.workload, runner) if "fit" in verbs else (0, 0.0)
    layer["quality.worse_fits"] = worse
    layer["quality.rss_ratio_gmean"] = ratio
    layer["failed_ratio"] = runner.failed / max(runner.attempted, 1)

    if args.trace:
        per_rep = [metrics.layer_metrics(s.spans) for s in traced]
        for name in PER_LAYER:
            if name not in layer:
                layer[name] = metrics.median(rep.get(name, 0.0) for rep in per_rep)
        layer["trace.overhead_s"] = metrics.median(s.wall_s for s in traced) - e2e["wall_s"]
        layer["models.mean_evals_per_s"], layer["models.grad_evals_per_s"] = kernel_rates(corpus)
        with open(work / "spans.jsonl", "w", encoding="utf-8") as handle:
            for seq in traced:
                for verb, spans in zip(verbs, seq.spans):
                    for span in spans:
                        handle.write(json.dumps({"verb": verb, **span}) + "\n")

    digest = checks.tree_digest(work / "out") if plain else ""
    with open(WORK / "digests.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed, "outputs": digest}) + "\n")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(runner.problems) > 20:
        print(f"... {len(runner.problems) - 20} more problems", file=sys.stderr)

    correct = not runner.problems and bool(plain)
    chosen = {name: layer[name] for name in PER_LAYER} if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} sequences={len(plain)} plain, {len(traced)} traced; "
          f"outputs {digest[:16]}")
    for name, value in chosen.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
