"""A standard output whose reader has gone changes no exit code and skips
no file.

Each command runs in a subprocess whose standard output is the write end
of an ``os.pipe()`` with its read end closed before the spawn, so every
write to it fails with EPIPE. Each runs with Python's default buffering
and with ``PYTHONUNBUFFERED=1``: buffered, the first failing write is the
final flush; unbuffered, it is the first ``print``. Every command exits
with the verdict it reached, writes its ``--out`` file byte for byte as a
normal run does, and leaves standard error empty.
"""

import json
import os
import subprocess
import sys

import pytest

from chaincert import io
from chaincert.cli import main

SRC = os.path.dirname(os.path.dirname(io.__file__))


def _run_into_a_closed_pipe(argv, unbuffered: bool):
    """(exit code, standard error) of the command line ``argv``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "chaincert.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    return run.returncode, run.stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """README's Z/2 inputs and certificate, an F_5 input, a bumped
    certificate, and the files ``generate`` and ``dualize`` write."""
    out = tmp_path_factory.mktemp("closed")
    paths = {name: str(out / f"{name}.json") for name in ("p", "q", "cert", "bumped", "f5", "dual")}
    z2 = ["--ring", "Z", "--module", "Z/2", "--n", "2", "--max-rank", "4"]
    assert main(["generate", *z2, "--seed", "7", "--out", paths["p"]]) == 0
    assert main(["generate", *z2, "--seed", "8", "--out", paths["q"]]) == 0
    assert main(["stabilize", paths["p"], paths["q"], "--out", paths["cert"]]) == 0
    doc = json.load(open(paths["cert"]))
    row = doc["payload"]["block_isomorphisms"]["forward"][0][0]
    row[0] = str(int(row[0]) + 1)
    json.dump(doc, open(paths["bumped"], "w"))
    f5 = ["--ring", "Fp:5", "--module", "dim:2", "--n", "2", "--max-rank", "4", "--seed", "1"]
    assert main(["generate", *f5, "--out", paths["f5"]]) == 0
    assert main(["dualize", paths["f5"], "--out", paths["dual"]]) == 0
    return paths


CASES = {  # name: (argv, expected exit code, (the --out file, as a normal run writes it))
    "check": (["check", "--verbose", "{cert}"], 0, None),
    "check-bumped": (["check", "--verbose", "{bumped}"], 2, None),
    "validate": (["validate", "--verbose", "{p}"], 0, None),
    "compare": (["compare", "{p}", "{q}"], 0, None),
    "stabilize": (["stabilize", "{p}", "{q}", "--out", "{out}"], 0, "cert"),
    "generate": (
        ["generate", "--ring", "Fp:5", "--module", "dim:2", "--n", "2", "--max-rank", "4",
         "--seed", "1", "--out", "{out}"],
        0,
        "f5",
    ),
    "dualize": (["dualize", "{f5}", "--out", "{out}"], 0, "dual"),
    "help": (["--help"], 0, None),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_closed_standard_output_keeps_the_verdict_and_the_file(files, case, unbuffered, tmp_path):
    argv, code, written = CASES[case]
    out = tmp_path / "out.json"
    argv = [arg.format(out=out, **files) for arg in argv]
    assert _run_into_a_closed_pipe(argv, unbuffered) == (code, b"")
    if written:
        assert out.read_bytes() == open(files[written], "rb").read()
