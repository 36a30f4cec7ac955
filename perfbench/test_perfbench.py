"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def traced(runner_jobs, cli, files, workdir, seed):
    tracer = Tracer()
    runner = bench.Runner(cli, files, workdir, seed, tracer)
    tracer.install()
    try:
        for number in runner_jobs:
            runner.job(number)
    finally:
        tracer.uninstall()
    return runner, tracer


def test_tracer_keeps_certificates_and_exit_codes(tmp_path):
    cli, files = bench.set_up("group-ring", 3, str(tmp_path))
    files = files[:3]  # one pair of each kind
    plain = bench.Runner(cli, files, str(tmp_path), 3)
    for number in range(3):
        plain.job(number)
    runner, tracer = traced(range(3), cli, files, str(tmp_path), 3)

    assert plain.correct and runner.correct
    assert plain.attempted == runner.attempted == 9
    assert plain.combined_digest() == runner.combined_digest()
    stats = tracer.layer_stats()
    assert stats["cli.main"]["calls"] == 9
    assert stats["matrix.restrict_scalars"]["calls"] > 0
    assert stats["rings.regular_representation"]["calls"] > 0


def test_tracer_restores_every_binding():
    bench.import_program()
    import chaincert
    from chaincert import chain, matrix, resolution, stabilize, _kernels
    from chaincert.rings import GroupRing

    before = {
        "solve": [m.solve for m in (chaincert, matrix, chain, resolution, stabilize)],
        "mul": matrix.Matrix.__dict__["__mul__"],
        "kernel": _kernels.matmul_mod,
        "rep": GroupRing.__dict__["regular_representation"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {m.solve for m in (chaincert, matrix, chain, resolution, stabilize)}
        assert len(wrapped) == 1 and wrapped.isdisjoint(before["solve"])
        assert matrix.Matrix.__dict__["__mul__"] is not before["mul"]
    finally:
        tracer.uninstall()
    assert [m.solve for m in (chaincert, matrix, chain, resolution, stabilize)] == before["solve"]
    assert matrix.Matrix.__dict__["__mul__"] is before["mul"]
    assert _kernels.matmul_mod is before["kernel"]
    assert GroupRing.__dict__["regular_representation"] is before["rep"]
    assert len(TARGETS) == len(tracer.names)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    digests = []
    for run_dir, seed in (("a", 5), ("b", 5), ("c", 6)):
        path = tmp_path / run_dir
        path.mkdir()
        _, files = bench.set_up(workload, seed, str(path))
        digests.append(bench.digest_files(p for _, *paths in files for p in paths))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def small_pairs():
    """One small pair over each kind of ring the workloads use."""
    bench.import_program()
    from chaincert.matrix import Matrix
    from chaincert.resolution import ModulePresentation, pad_top
    from chaincert.rings import ZZ, PrimeField

    f5 = PrimeField(5)
    fp = ModulePresentation(f5, 1, Matrix(f5, 1, 0, ()))
    z = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))
    pairs = [
        workloads.random_pairs(fp, n=2, max_rank=4, seed=1, count=1, reference_size=0, label="fp")[0],
        workloads.random_pairs(z, n=2, max_rank=4, seed=1, count=1, reference_size=0, label="z")[0],
    ]
    s3 = workloads.s3_resolution()
    f2c4 = workloads.relabel(workloads.f2c4_resolution(2), [2, 0, 3, 1])
    pairs += [
        workloads.Pair("s3", s3, pad_top(s3, 1)),
        workloads.Pair("f2c4", f2c4, pad_top(f2c4, 2)),
    ]
    return pairs


def test_corrupted_certificate_exits_2(tmp_path):
    pairs = small_pairs()
    from chaincert import cli
    from chaincert import io as cio

    for pair in pairs:
        paths = []
        for label, res in (("p", pair.first), ("q", pair.second)):
            paths.append(str(tmp_path / f"{pair.name}-{label}.json"))
            cio.save(paths[-1], cio.resolution_to_json(res))
        cert = str(tmp_path / f"{pair.name}-cert.json")
        assert cli.main(["stabilize", *paths, "--out", cert]) == 0
        assert cli.main(["check", cert]) == 0
        with open(cert, "rb") as fh:
            data = fh.read()
        for seed in range(8):
            bad = str(tmp_path / f"{pair.name}-bad{seed}.json")
            with open(bad, "wb") as fh:
                fh.write(bench.corrupt(data, random.Random(seed)))
            assert cli.main(["check", bad]) == 2, (pair.name, seed)


def test_fp_tower_never_restricts_scalars(tmp_path):
    cli, files = bench.set_up("fp-tower", 2, str(tmp_path))
    runner, tracer = traced(range(1), cli, files, str(tmp_path), 2)
    assert runner.correct
    stats = tracer.layer_stats()
    assert stats["matrix.restrict_scalars"]["calls"] == 0
    assert stats["rings.regular_representation"]["calls"] == 0
    assert stats["kernels.matmul_mod"]["calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group-ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
