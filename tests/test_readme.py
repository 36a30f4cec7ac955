"""README.md runs as written.

Every ```python block runs in this process, so a change to the library's
API cannot leave README's examples broken; a failure's traceback names
the README line.

The block under "Command line" runs line by line, in order, in one
temporary directory, each line as a new ``python -m chaincert.cli``
process (``conftest.run_cli``), so the exit code is the one
``sys.exit(main())`` gives the shell. Each line must exit 0 with
standard error empty. The files it leaves are the inputs of the
process-level checks after it: the ``check --verbose`` listing pinned in
``tests/quickstart_check.txt``, an ``--out`` that names a FIFO, and two
bumped certificates that must exit 2.
"""

import json
import os
import re
import shlex
import stat
import threading
from pathlib import Path

import pytest

from conftest import CLI_TIMEOUT, run_cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _blocks():
    """(first line, source) of each ```python block; the source is padded
    with blank lines so that its line numbers are README's."""
    text = README.read_text(encoding="utf-8")
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, match.start(1)) + 1
        yield line, "\n" * (line - 1) + match.group(1)


BLOCKS = list(_blocks())


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", [s for _, s in BLOCKS], ids=[f"line {n}" for n, _ in BLOCKS])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def _command_lines():
    """(README line, arguments after ``chaincert``) of each line of the
    block under "Command line", comments dropped."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.M | re.S)
    first = text.count("\n", 0, match.start(1)) + 1
    for offset, line in enumerate(match.group(1).splitlines()):
        command, *args = shlex.split(line, comments=True)
        assert command == "chaincert", f"README line {first + offset}"
        yield first + offset, args


COMMAND_LINES = list(_command_lines())


def chaincert(args, cwd):
    """The command line ``chaincert args`` as a new process in ``cwd``,
    its output captured as bytes."""
    return run_cli(args, cwd=cwd, capture_output=True)


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The directory the command-line block ran in, and each line's
    (README line, finished process)."""
    cwd = tmp_path_factory.mktemp("quickstart")
    return cwd, [(line, chaincert(args, cwd)) for line, args in COMMAND_LINES]


def test_readme_command_line_block_runs(quickstart):
    cwd, runs = quickstart
    assert [(line, run.returncode, run.stderr) for line, run in runs] == [
        (line, 0, b"") for line, _ in runs
    ]
    assert sorted(os.listdir(cwd)) == ["cert.json", "f.json", "fd.json", "p.json", "q.json"]


def test_check_verbose_lists_the_pinned_checks(quickstart):
    """The 16 v1 check names in order, then the total."""
    cwd, _ = quickstart
    run = chaincert(["check", "--verbose", "cert.json"], cwd)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (ROOT / "tests" / "quickstart_check.txt").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_stabilize_writes_into_a_fifo_in_place(quickstart, tmp_path):
    """An ``--out`` that names a FIFO is written, not replaced: its reader
    gets the bytes of the file ``stabilize`` writes."""
    cwd, _ = quickstart
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    run = chaincert(["stabilize", "p.json", "q.json", "--out", str(fifo)], cwd)
    reader.join(timeout=CLI_TIMEOUT)
    assert (run.returncode, run.stderr) == (0, b"")
    assert got == [(cwd / "cert.json").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def _bump_top_backward_block(payload) -> str:
    """k_n at (0, 0): at the top ``check`` forms only h_n k_n, and h_n is
    invertible, so h_n (k_n + E) != 1."""
    row = payload["block_isomorphisms"]["backward"][-1][0]
    row[0] = str(int(row[0]) + 1)
    return f"block pair mutually inverse at degree {len(payload['source']['ranks']) - 1}: "


def _bump_source_homotopy(payload) -> str:
    """s_i at (a, 0), for the first i < n and a where column a of the
    source's d_{i+1} is nonzero: the degree-i homotopy identity changes by
    d_{i+1} E, column a of d_{i+1} moved to column 0, so it fails."""
    d = payload["source"]["boundaries"][::-1]  # a file lists d_n, ..., d_1
    i, a = next(
        (i, a) for i, m in enumerate(d) for a in range(len(m[0]) if m else 0)
        if any(int(row[a]) for row in m)
    )
    row = payload["source_homotopy"][i][a]
    row[0] = str(int(row[0]) + 1)
    return f"source homotopy: homotopy identity at degree {i}: "


@pytest.mark.parametrize(
    "bump", [_bump_top_backward_block, _bump_source_homotopy], ids=["k_n", "s_i"]
)
def test_check_exits_2_on_a_bumped_entry(quickstart, tmp_path, bump):
    cwd, _ = quickstart
    doc = json.loads((cwd / "cert.json").read_text(encoding="utf-8"))
    name = bump(doc["payload"])
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run = chaincert(["check", str(path)], cwd)
    assert (run.returncode, run.stderr) == (2, b"")
    assert f"\n[FAIL] {name}" in "\n" + run.stdout.decode()
