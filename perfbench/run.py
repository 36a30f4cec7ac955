"""Layered construct / check / reject benchmark for chaincert.

Usage (from the repository root):

    python3 perfbench/run.py --workload fp-tower --seed 1 --seconds 35 --trace 0

The benchmark imports chaincert from ``src/`` of the checkout it sits in,
writes the seeded input resolutions to a scratch directory under
``.perfbench/``, and drives the real command line (``chaincert.cli.main``,
in process) in a closed loop: one client, one thread, each operation
starting when the previous one ends. One job is three operations:

1. ``stabilize p.json q.json --out c.json``   expected exit 0
2. ``check c.json``                          expected exit 0
3. ``check`` on a seeded single-entry corruption of c.json, expected exit 2

``--trace 0`` runs jobs until ``--seconds`` is used up and reports the
end-to-end metrics. ``--trace 1`` visits every input pair once untraced and
once under the outside-in tracer (perfbench/tracer.py), and reports the
per-layer metrics; the spans are written to ``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics (sample counts, quartiles, certificate digest, kernel
implementation, Python version).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated and its median reported; the first repeat of a fresh
# checkout also compiles bytecode.
SETUP_REPEATS = 5

TIMINGS = ("stabilize_s", "check_s", "reject_s")


class SetupError(RuntimeError):
    """The program or its generated inputs are unusable; nothing is timed."""


# ---------------------------------------------------------------------------
# set-up


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "chaincert", "__init__.py")):
        raise SetupError(f"no chaincert package under {SRC}")


def import_program():
    """Import chaincert afresh from the checkout's src/ and return its CLI
    module; earlier imports are dropped so that each set-up pays for the
    import again."""
    require_program()
    for name in [m for m in sys.modules if m == "chaincert" or m.startswith("chaincert.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("chaincert")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"chaincert imported from {package.__file__}, not from {SRC}")
    return importlib.import_module("chaincert.cli")


def set_up(workload: str, seed: int, workdir: str):
    """Import chaincert, then generate, validate and write the workload's
    input files. Returns the CLI module and [(pair name, p path, q path)]."""
    cli = import_program()
    from chaincert import io as cio
    from chaincert.resolution import validate_resolution

    files = []
    for index, pair in enumerate(WORKLOADS[workload](seed)):
        paths = []
        for label, res in (("p", pair.first), ("q", pair.second)):
            report = validate_resolution(res)
            if not report.ok:
                raise SetupError(
                    f"{pair.name}: generated {label} is not a valid resolution: "
                    f"{report.first_failure}"
                )
            path = os.path.join(workdir, f"pair{index}-{label}.json")
            cio.save(path, cio.resolution_to_json(res))
            paths.append(path)
        files.append((pair.name, *paths))
    return cli, files


def digest_files(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def timed_set_up(workload: str, seed: int, workdir: str):
    """Set up SETUP_REPEATS times; every repeat must write byte-identical
    inputs. Returns the CLI module, the files, and one Timing per repeat."""
    timings, digests = [], set()
    for _ in range(SETUP_REPEATS):
        (cli, files), timing = timed(set_up, workload, seed, workdir)
        timings.append(timing)
        digests.add(digest_files(p for _, *paths in files for p in paths))
    if len(digests) != 1:
        raise SetupError("the same seed produced different input files")
    return cli, files, timings


# ---------------------------------------------------------------------------
# certificates


def bump(text: str, modulus: int | None) -> str:
    value = int(text) + 1
    return str(value % modulus if modulus else value)


def corrupt(data: bytes, rng: random.Random) -> bytes:
    """Add 1 to one entry of one block isomorphism (one coefficient of a
    group-ring entry). h k = 1 then fails, since k is invertible; a
    homotopy witness is never touched, as such bumps can leave a
    certificate valid. Only the block isomorphisms are parsed, so the
    harness adds little to the process's peak memory."""
    text = data.decode()
    # canonical JSON sorts keys: "ring" is the last top-level key and
    # "block_isomorphisms" the first key of the payload
    ring = json.decoder.JSONDecoder().raw_decode(text, text.rindex('"ring":') + 7)[0]
    modulus = int(ring.split(":")[1]) if ":" in ring else None  # Fp:p, FpG:p
    begin = text.index('"block_isomorphisms":') + len('"block_isomorphisms":')
    blocks, end = json.decoder.JSONDecoder().raw_decode(text, begin)
    side = rng.choice(["forward", "backward"])
    degrees = [i for i, m in enumerate(blocks[side]) if m and m[0]]
    matrix = blocks[side][rng.choice(degrees)]
    row = matrix[rng.randrange(len(matrix))]
    col = rng.randrange(len(row))
    if isinstance(row[col], list):
        g = rng.randrange(len(row[col]))
        row[col][g] = bump(row[col][g], modulus)
    else:
        row[col] = bump(row[col], modulus)
    spliced = json.dumps(blocks, sort_keys=True, separators=(",", ":"))
    return (text[:begin] + spliced + text[end:]).encode()


MATRIX_KEYS = (
    "presentation", "source", "target", "forward", "backward",
    "source_homotopy", "target_homotopy", "block_isomorphisms",
)


def max_coeff_bits(data: bytes) -> int:
    """Largest bit length of a matrix entry (of a coefficient, over a group
    ring) anywhere in a certificate."""
    payload = json.loads(data)["payload"]
    best = 0
    stack = [payload[key] for key in MATRIX_KEYS]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(v for k, v in item.items() if k not in ("ranks", "ambient_rank", "relation_count"))
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            best = max(best, abs(int(item)).bit_length())
    return best


# ---------------------------------------------------------------------------
# machine speed probe
#
# A shared machine's speed can drift by tens of percent within and between
# runs (other tenants of the host), which no amount of repetition inside a
# run removes (perfbench/README.md has measurements). Every timed call is therefore bracketed, outside its timed
# region, by two runs of a fixed ~10 ms piece of pure-Python work, and the
# reported times are scaled by PROBE_REFERENCE_S / (mean of the two probe
# times): seconds on a machine where the probe takes PROBE_REFERENCE_S.
# Raw medians are printed on the line before the result.

PROBE_REFERENCE_S = 0.010
_PROBE_N = 48
_PROBE_A = [(7 * i + 3) % 5 for i in range(_PROBE_N * _PROBE_N)]


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like the
    program's inner loops (a product mod 5 and tuple building)."""
    n, a = _PROBE_N, _PROBE_A
    start = perf_counter()
    rows = [a[r * n:(r + 1) * n] for r in range(n)]
    out = []
    for i in range(n):
        row = [0] * n
        for x, brow in zip(rows[i], rows):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        row[j] = (row[j] + x * y) % 5
        out.append(tuple(row))
    tuple(tuple((x + y) % 5 for x, y in zip(r, r[::-1])) for r in out)
    return perf_counter() - start


@dataclass(frozen=True)
class Timing:
    elapsed: float  # seconds, as measured
    probe: float  # mean of the probes just before and just after

    @property
    def scaled(self) -> float:
        return self.elapsed * PROBE_REFERENCE_S / self.probe


def _load_malloc_trim():
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        trim = libc.malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


# glibc's malloc_trim, where available: hands freed heap memory back to the
# system between calls, so that each call starts from a heap like a fresh
# process's and the peak resident memory does not depend on how many calls
# came before.
_MALLOC_TRIM = _load_malloc_trim()


def timed(fn, *args):
    """Run fn(*args) between two speed probes, after a garbage collection
    and a heap trim; only the call itself is timed. Returns (result, Timing)."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    before = probe()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, Timing(elapsed, (before + probe()) / 2)


# ---------------------------------------------------------------------------
# the closed loop


class Runner:
    """Runs jobs over the input pairs and checks every outcome."""

    def __init__(self, cli, files, workdir: str, seed: int, tracer: Tracer | None = None):
        self.cli = cli
        self.files = files
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        # metric -> pair index -> samples (Timing, or bytes for cert_bytes)
        self.samples = {name: {} for name in (*TIMINGS, "cert_bytes")}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cert_digest: dict[int, str] = {}  # pair index -> sha256 of its certificate
        self.nondeterministic: set[int] = set()
        self.coeff_bits = 0
        self.op_spans: list[tuple[str, range]] = []  # traced: span ids of each operation

    def _main(self, argv: list[str], sink) -> int:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def _op(self, argv: list[str], expect: int) -> Timing | None:
        self.attempted += 1
        sink = io.StringIO()
        first_span = len(self.tracer) if self.tracer else 0
        try:
            code, timing = timed(self._main, argv, sink)
        except Exception:
            self._fail(argv, traceback.format_exc())
            return None
        if self.tracer:
            self.op_spans.append((argv[0], range(first_span, len(self.tracer))))
        if code != expect:
            self._fail(argv, f"exit {code}, expected {expect}\n{sink.getvalue()[-2000:]}")
            return None
        return timing

    def _fail(self, argv, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(argv)}: {detail}")

    def job(self, number: int, record_bits: bool = False) -> None:
        index = number % len(self.files)
        _, first, second = self.files[index]
        cert = os.path.join(self.workdir, f"cert{index}.json")
        bad = os.path.join(self.workdir, f"cert{index}-corrupt.json")
        if os.path.exists(cert):
            os.remove(cert)
        if self.tracer:
            self.tracer.job = number

        timing = self._op(["stabilize", first, second, "--out", cert], 0)
        if timing is None:
            # nothing to check: the remaining two operations fail with it
            self.attempted += 2
            self.failed += 2
            return
        self._sample("stabilize_s", index, timing)
        with open(cert, "rb") as fh:
            data = fh.read()
        self._sample("cert_bytes", index, len(data))
        digest = hashlib.sha256(data).hexdigest()
        if index not in self.cert_digest:
            self.cert_digest[index] = digest
            with open(bad, "wb") as fh:
                fh.write(corrupt(data, random.Random(f"{self.seed}:{index}")))
            if record_bits:
                self.coeff_bits = max(self.coeff_bits, max_coeff_bits(data))
        elif self.cert_digest[index] != digest:
            self.nondeterministic.add(index)

        for name, path, expect in (("check_s", cert, 0), ("reject_s", bad, 2)):
            timing = self._op(["check", path], expect)
            if timing is not None:
                self._sample(name, index, timing)

    def _sample(self, name: str, index: int, value) -> None:
        self.samples[name].setdefault(index, []).append(value)

    def pair_median(self, name: str, key=lambda v: v) -> float | None:
        """Median over pairs of each pair's own median, so that every pair
        counts once however many times the loop reached it."""
        per_pair = [statistics.median(map(key, v)) for v in self.samples[name].values()]
        return statistics.median(per_pair) if per_pair else None

    def all_samples(self, name: str) -> list:
        return [v for values in self.samples[name].values() for v in values]

    def combined_digest(self) -> str:
        """sha256 over the per-pair certificate digests, in pair order."""
        sha = hashlib.sha256()
        for index in sorted(self.cert_digest):
            sha.update(self.cert_digest[index].encode())
        return sha.hexdigest()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.nondeterministic

    def timings(self) -> list[Timing]:
        return [t for name in TIMINGS for t in self.all_samples(name)]

    def median_probe(self) -> float:
        return statistics.median(t.probe for t in self.timings())


def run_for(runner: Runner, seconds: float) -> None:
    """Closed loop: start jobs until the next one would end past the
    deadline (judged by the median job so far), but visit every pair at
    least once."""
    deadline = perf_counter() + seconds
    durations = []
    number = 0
    while True:
        start = perf_counter()
        runner.job(number)
        durations.append(perf_counter() - start)
        number += 1
        if number >= len(runner.files) and perf_counter() + statistics.median(durations) > deadline:
            return


# ---------------------------------------------------------------------------
# reporting


def summary(values) -> dict:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it, with the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"n": n}
    if not n:
        return out
    out["median"] = statistics.median(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n > 10:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, setup: list[Timing]) -> tuple[dict, dict]:
    """Metrics, and the details printed before them: sample summaries of
    the scaled times, raw medians and the median probe time."""
    scaled = lambda t: t.scaled  # noqa: E731
    raw = lambda t: t.elapsed  # noqa: E731
    metrics = {}
    detail = {"probe_s": runner.median_probe(), "raw": {}}
    for name in TIMINGS:
        value = runner.pair_median(name, scaled)
        if value is not None:
            metrics[name] = {"value": value, "unit": "s"}
            detail[name] = summary(map(scaled, runner.all_samples(name)))
            detail["raw"][name] = runner.pair_median(name, raw)
    if runner.samples["cert_bytes"]:
        metrics["cert_bytes"] = {"value": runner.pair_median("cert_bytes"), "unit": "B"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    metrics["setup_s"] = {"value": statistics.median(map(scaled, setup)), "unit": "s"}
    detail["setup_s"] = summary(map(scaled, setup))
    detail["raw"]["setup_s"] = statistics.median(map(raw, setup))
    return metrics, detail


def per_layer(tracer: Tracer, traced: Runner, untraced: Runner) -> dict:
    """Per-layer metrics of the traced pass. Times are scaled like the
    end-to-end ones, by the traced pass's median probe time."""
    scale = PROBE_REFERENCE_S / traced.median_probe()
    metrics = {}
    for prefix, stats in tracer.layer_stats().items():
        for field, value in stats.items():
            if field == "calls":
                metrics[f"{prefix}.{field}"] = {"value": value, "unit": "count"}
            else:
                metrics[f"{prefix}.{field}"] = {"value": value * scale, "unit": "s"}
    metrics["matrix.mul.madds"] = {"value": tracer.counters["matrix.mul.madds"], "unit": "count"}
    metrics["matrix.add.entries"] = {"value": tracer.counters["matrix.add.entries"], "unit": "count"}
    metrics["matrix.max_coeff_bits"] = {"value": traced.coeff_bits, "unit": "bit"}
    construct = [sid for op, spans in traced.op_spans if op == "stabilize" for sid in spans]
    stage = tracer.layer_stats(construct)
    verify = stage["stabilize.verify_certificate"]["total_s"]
    ratio = stage["stabilize.total_equivalence"]["total_s"] / verify if verify else 0.0
    metrics["stabilize.construct_verify_ratio"] = {"value": ratio, "unit": "ratio"}
    overhead = sum(t.scaled for t in traced.timings()) - sum(t.scaled for t in untraced.timings())
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    require_program()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH)
    try:
        cli, files, setup = timed_set_up(args.workload, args.seed, workdir)
        import chaincert._kernels as kernels

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "pairs": [name for name, _, _ in files],
            "kernels": kernels.IMPLEMENTATION,
            "python": platform.python_version(),
        }
        untraced = Runner(cli, files, workdir, args.seed)
        digests_agree = True
        if not args.trace:
            run_for(untraced, args.seconds)
            metrics, info["samples"] = end_to_end(untraced, setup)
            runners = [untraced]
        else:
            jobs = len(files)  # one visit to every pair
            for number in range(jobs):
                untraced.job(number)
            tracer = Tracer()
            traced = Runner(cli, files, workdir, args.seed, tracer)
            tracer.install()
            try:
                for number in range(jobs):
                    traced.job(number, record_bits=True)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, untraced)
            trace_path = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(trace_path)
            info.update(trace_jobs=jobs, trace_spans=len(tracer), trace_file=os.path.relpath(trace_path, ROOT))
            runners = [untraced, traced]
            digests_agree = traced.combined_digest() == untraced.combined_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    info.update(
        cert_digest=untraced.combined_digest(),
        failed_ops=failed / attempted,
        errors=[e for r in runners for e in r.errors],
        nondeterministic=sorted(i for r in runners for i in r.nondeterministic),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    return {
        "correct": digests_agree and all(r.correct for r in runners),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
