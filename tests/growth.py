"""Growth gate for the file reader: ``check`` and ``validate`` stay
linear on hostile text.

A fixed wall-time bound sees a superlinear reader only at a size large
enough; this gate measures the growth itself. For each family of hostile
text it times a command (``check`` on the F_5-tailed texts, which
``io.load`` hands to the digit-matrix search ``io._lift_digit_matrices``
before the plain parser refuses them, ``validate`` on the Z resolution)
at size N and 4N, each as the fastest of five runs, with N doubled until
the N run takes at least 20 ms. Each run is a new process, as
``chaincert`` is, which times ``cli.main([command, path])`` alone: in
one process, a later run reuses the memory an earlier one freed, but
only below the allocator's 32 MB mapping threshold, so N would be timed
warm and 4N cold. It prints the exponent log(t_4N / t_N) / log 4 of each
family and exits 1 when one is above 1.3, or when the command does not
refuse a file as malformed (exit 1). The largest file is about 100 MB.
Run it from the repository root:

    PYTHONPATH=src python tests/growth.py

The families:

* many '[["' before one ']': every '[["' could start a span that ends at
  that one ']';
* staggered first rows: first rows of one width whose ']' lie five bytes
  apart modulo that width, then commas, so a row scan from any of them
  runs through the rows after it and all the commas;
* first rows whose widths just miss the row rule: each holds one digit
  more than a first row of a digit matrix, so none has a row width;
* deep '[' nesting: the search finds no '[["', and the plain parser
  stops at its nesting limit;
* one long digit run: a Z resolution 0 <- Z <- Z whose boundary cell has
  more digits than ``sys.int_max_str_digits`` allows (4300 by default).

The name does not start with ``test_``, so pytest does not collect it.
"""

import math
import subprocess
import sys
import tempfile
from pathlib import Path

TAIL = b']"ring":"Fp:5"}'  # the end of an F_5 file: the search runs
EXPONENT = 1.3
FLOOR_S = 0.020
RUNS = 5
WIDTH = 1002  # the staggered rows' width


def many_openings(n: int) -> bytes:
    return b'[["' * n + TAIL


def staggered_first_rows(n: int) -> bytes:
    """``n`` first rows of ``WIDTH`` bytes, each followed by five commas,
    then four times their length in commas."""
    rows = (b'[["' + b"," * (WIDTH - 4) + b"]" + b",,,,,") * n
    return b'{"a":' + rows + b"," * (4 * len(rows)) + TAIL


def near_miss_rows(n: int) -> bytes:
    """``n`` matrices whose one first row holds 1, 2 or 3 cells and one
    digit too many: '[["00"]]', '[["0","00"]]', ..."""
    return b",".join(b'[["' + b'0","' * (i % 3) + b'00"]]' for i in range(n)) + TAIL


def deep_nesting(n: int) -> bytes:
    return b"[" * n + TAIL


def long_digit_run(n: int) -> bytes:
    payload = (
        b'{"augmentation":[["1"]],"boundaries":[[["' + b"1" * n + b'"]]],"cochain":false,'
        b'"presentation":{"ambient_rank":"1","relation_count":"1","relations":[["2"]]},'
        b'"ranks":["1","1"]}'
    )
    return b'{"format_version":"1","kind":"resolution","payload":' + payload + b',"ring":"Z"}'


# name: (text of size n, the first n tried, the command timed)
FAMILIES = {
    "many '[[\"' before one ']'": (many_openings, 1000, "check"),
    "staggered first rows": (staggered_first_rows, 10, "check"),
    "first rows that just miss the row rule": (near_miss_rows, 1000, "check"),
    "deep '[' nesting": (deep_nesting, 100_000, "check"),
    "one long digit run": (long_digit_run, 100_000, "validate"),
}


# one timed run of a command, in the process that runs it
RUN = """
import contextlib, io, sys, time
from chaincert import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    elapsed = time.perf_counter() - start
print(code, elapsed, "Traceback" in out.getvalue())
"""


def fastest(command: str, path: Path) -> float:
    """The fastest of ``RUNS`` runs of ``command`` on ``path``, each in a
    new process with a timeout; every run must refuse the file as
    malformed."""
    best = math.inf
    for _ in range(RUNS):
        argv = [sys.executable, "-c", RUN, command, str(path)]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        code, elapsed, traceback = run.stdout.split() or ("none", "", "")
        if code != "1" or traceback != "False":
            raise SystemExit(f"{path.name}: {command} exited {code}, want 1\n{run.stderr}")
        best = min(best, float(elapsed))
    return best


def exponent(
    family, n: int, command: str, directory: Path
) -> tuple[int, int, float, float, float]:
    """(N, the N file's size, t_N, t_4N, exponent) of one family, doubling
    N from ``n``."""
    path = directory / "hostile.json"
    while True:
        path.write_bytes(family(n))
        t_n = fastest(command, path)
        if t_n >= FLOOR_S:
            break
        n *= 2
    size = path.stat().st_size
    path.write_bytes(family(4 * n))
    t_4n = fastest(command, path)
    return n, size, t_n, t_4n, math.log(t_4n / t_n) / math.log(4)


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as directory:
        for name, (family, start, command) in FAMILIES.items():
            n, size, t_n, t_4n, k = exponent(family, start, command, Path(directory))
            print(
                f"{name}: N = {n} ({size / 1e6:.2f} MB), t_N = {t_n * 1e3:.1f} ms, "
                f"t_4N = {t_4n * 1e3:.1f} ms, exponent {k:.2f} (gate {EXPONENT})"
            )
            if k > EXPONENT:
                failed.append(name)
    if failed:
        print("superlinear:", ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
