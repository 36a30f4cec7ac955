import dataclasses
import json
import os
import random
import stat
import sys
import threading
import tracemalloc
from time import perf_counter

import pytest

from chaincert import cli, io
from chaincert.chain import ChainComplex, Report
from chaincert.cli import main
from chaincert.matrix import Matrix
from chaincert.resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    generate_resolution,
    pad_top,
    validate_resolution,
)
from chaincert.rings import ZZ, GroupRing, GroupTable, PrimeField
from chaincert.stabilize import total_equivalence, verify_certificate

F2 = PrimeField(2)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# serialization round trips


@pytest.mark.parametrize(
    "name,n", [("Z_over_Z", 1), ("Z_over_Z[C_2]", 2), ("Z_over_Z[C_3]", 3)]
)
def test_resolution_round_trip(name, n):
    _, res = canonical_resolution(name, n)
    doc = io.resolution_to_json(res)
    again = io.resolution_from_json(json.loads(json.dumps(doc)))
    assert again == res


def test_resolution_round_trip_field():
    pres = ModulePresentation(F2, 2, Matrix.from_rows(F2, [[1], [0]]))
    res = generate_resolution(pres, n=3, max_rank=4, seed=4)
    assert io.resolution_from_json(io.resolution_to_json(res)) == res


def test_certificate_round_trip():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    cert = total_equivalence(res, pad_top(res, 1))
    doc = io.certificate_to_json(cert)
    again = io.certificate_from_json(json.loads(json.dumps(doc)))
    assert again.source == cert.source
    assert again.target == cert.target
    assert again.fwd == cert.fwd
    assert again.bwd == cert.bwd
    assert again.iso_fwd == cert.iso_fwd
    assert again.t_ranks == cert.t_ranks
    assert verify_certificate(again).ok


def test_canonical_dump_stable():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    a = io.dump_canonical(io.resolution_to_json(res))
    b = io.dump_canonical(io.resolution_to_json(res))
    assert a == b


def test_integers_serialized_as_strings():
    _, res = canonical_resolution("Z_over_Z", 1)
    doc = io.resolution_to_json(res)
    assert doc["payload"]["ranks"] == ["1", "0"]
    assert doc["payload"]["presentation"]["ambient_rank"] == "1"


def test_group_ring_entries_are_coefficient_arrays():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.resolution_to_json(res)
    assert doc["ring"] == "ZG"
    assert doc["group"]["mult"] == [["0", "1"], ["1", "0"]]
    # d_1 = t - 1 stored as ["-1", "1"]
    assert doc["payload"]["boundaries"][-1] == [[["-1", "1"]]]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(ring="Q"),
        lambda d: d.update(format_version="999"),
        lambda d: d.update(kind="mystery"),
        lambda d: d.pop("payload"),
        lambda d: d["payload"].update(ranks=["1"]),
        lambda d: d["payload"]["presentation"].update(ambient_rank="x"),
        lambda d: d["payload"].update(boundaries=[]),
        lambda d: d["payload"].pop("augmentation"),
        # only dualize over a prime field writes the cochain orientation
        lambda d: d["payload"].update(cochain=True),
    ],
)
def test_malformed_documents_rejected(mangle, tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = json.loads(json.dumps(io.resolution_to_json(res)))
    mangle(doc)
    path = tmp_path / "mangled.json"
    path.write_text(io.dump_canonical(doc))
    with pytest.raises(io.MalformedFileError):
        io.load(str(path))


@pytest.mark.parametrize(
    "ranks,message",
    [
        pytest.param([], "ranks must be a nonempty list", id="empty"),
        pytest.param(["2", "-1", "1"], "negative rank -1", id="negative"),
    ],
)
@pytest.mark.parametrize(
    "kind,path",
    [
        pytest.param("resolution", ("ranks",), id="resolution"),
        pytest.param("certificate", ("source", "ranks"), id="source"),
        pytest.param("certificate", ("target", "ranks"), id="target"),
    ],
)
def test_rank_lists_rejected_by_name(tmp_path, kind, path, ranks, message):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    if kind == "resolution":
        doc = io.resolution_to_json(res)
    else:
        doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = ranks
    file = tmp_path / "ranks.json"
    file.write_text(io.dump_canonical(doc))
    with pytest.raises(io.MalformedFileError, match=f"^{message}$"):
        io.load(str(file))


@pytest.mark.parametrize("isos", [[], {"forward": []}, {"backward": []}])
def test_malformed_block_isomorphisms_rejected(isos, tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    doc["payload"]["block_isomorphisms"] = isos
    path = tmp_path / "mangled.json"
    path.write_text(io.dump_canonical(doc))
    assert main(["check", str(path)]) == 1


DELETE = object()


@pytest.mark.parametrize(
    "kind,path,value,message",
    [
        ("resolution", ("presentation",), DELETE, "missing resolution field: 'presentation'"),
        ("resolution", ("presentation", "relations"), DELETE, "bad presentation: 'relations'"),
        (
            "resolution",
            ("presentation",),
            [],
            "bad presentation: list indices must be integers or slices, not str",
        ),
        ("resolution", ("boundaries",), DELETE, "bad complex: 'boundaries'"),
        ("certificate", ("target", "ranks"), DELETE, "bad complex: 'ranks'"),
        ("certificate", ("target_homotopy",), DELETE, "missing certificate field: 'target_homotopy'"),
        ("certificate", ("tower_ranks", "s"), DELETE, "missing certificate field: 's'"),
        (
            "certificate",
            ("tower_ranks", "t"),
            5,
            "missing certificate field: 'int' object is not iterable",
        ),
        (
            "certificate",
            ("block_isomorphisms", "backward"),
            DELETE,
            "missing certificate field: 'backward'",
        ),
    ],
)
def test_a_missing_field_is_named_by_its_lookup(tmp_path, kind, path, value, message):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    if kind == "resolution":
        doc = io.resolution_to_json(res)
    else:
        doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    file = tmp_path / "missing.json"
    file.write_text(io.dump_canonical(doc))
    with pytest.raises(io.MalformedFileError) as caught:
        io.load(str(file))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "report,code",
    [
        pytest.param(
            [
                {"name": "expansion 0 -> 1 (left)", "ok": True},
                {"name": "middle isomorphism", "ok": True},
                {"name": "expansion 1 -> 0 (right)", "ok": True},
            ],
            0,
            id="valid",
        ),
        pytest.param({"name": "middle isomorphism", "ok": True}, 1, id="not-a-list"),
        pytest.param([{"name": "middle isomorphism"}], 1, id="entry-without-ok"),
        pytest.param([{"ok": True}], 1, id="entry-without-name"),
        pytest.param(["middle isomorphism"], 1, id="entry-not-an-object"),
    ],
)
def test_older_stage_report_is_read_and_dropped(report, code, tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    assert "stage_report" not in doc["payload"]
    doc["payload"]["stage_report"] = report
    path = tmp_path / "older.json"
    path.write_text(io.dump_canonical(doc))
    assert main(["check", str(path)]) == code


def test_fp_group_ring_round_trip():
    ring = GroupRing(F2, GroupTable.cyclic(2))
    doc = io.ring_to_json(ring)
    assert doc["ring"] == "FpG:2"
    assert io.ring_from_json(doc) == ring


@pytest.mark.parametrize("ring", ["FpG:4", "FpG:x", "FpG:"])
def test_cli_validate_bad_group_ring_base(tmp_path, capsys, ring):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.resolution_to_json(res)
    doc["ring"] = ring
    path = tmp_path / "bad_base.json"
    path.write_text(io.dump_canonical(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bad prime field" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# CLI


def _write(tmp_path, name, res):
    path = tmp_path / name
    io.save(str(path), io.resolution_to_json(res))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    path = _write(tmp_path, "c2.json", res)
    assert main(["validate", path]) == 0


def test_cli_validate_math_failure_names_degree(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.resolution_to_json(res)
    # break d1.d2 = 0: make both boundaries t-1
    doc["payload"]["boundaries"][0] = [[["-1", "1"]]]
    path = tmp_path / "broken.json"
    path.write_text(io.dump_canonical(doc))
    assert main(["validate", str(path)]) == 2
    assert "d1.d2" in capsys.readouterr().out


def test_cli_validate_malformed(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 1


def _digit_matrix_in_tower_ranks() -> bytes:
    """An F_5 certificate whose ``tower_ranks.t`` holds its top forward
    block, a digit matrix with rows of 58 entries."""
    pres = ModulePresentation(F5, 2, Matrix.zeros(F5, 2, 0))
    p, q = (generate_resolution(pres, n=4, max_rank=8, seed=seed) for seed in (1, 2))
    doc = io.certificate_to_json(total_equivalence(p, q))
    doc["payload"]["tower_ranks"]["t"] = doc["payload"]["block_isomorphisms"]["forward"][-1]
    return io.dump_canonical(doc).encode()


@pytest.mark.parametrize(
    "content",
    [
        b'{"format_version": ' + b"9" * 5000 + b"}",
        b'{"ring": "\xff"}',
        _digit_matrix_in_tower_ranks(),
    ],
    ids=["over-long-number", "not-utf8", "digit-matrix-in-tower-ranks"],
)
def test_cli_undecodable_file(tmp_path, capsys, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200  # a value in the message is shown cut short
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    ["[" * 1000 + "]" * 1000, '{"a":' * 1000 + "0" + "}" * 1000],
    ids=["array", "object"],
)
@pytest.mark.parametrize("command", ["validate", "check"])
def test_cli_deeply_nested_file_is_malformed(tmp_path, capsys, content, command):
    path = tmp_path / "nested.json"
    path.write_text(content)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_stabilize_check_flow(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, q, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "tower ranks t:" in captured
    assert main(["check", out]) == 0
    assert main(["validate", out]) == 0


def test_cli_stabilize_same_file_twice(tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, p, "--out", out]) == 0


def test_cli_stabilize_length_mismatch(tmp_path, capsys):
    _, res2 = canonical_resolution("Z_over_Z[C_2]", 2)
    _, res3 = canonical_resolution("Z_over_Z[C_2]", 3)
    p = _write(tmp_path, "p.json", res2)
    q = _write(tmp_path, "q.json", res3)
    assert main(["stabilize", p, q, "--out", str(tmp_path / "c.json")]) == 1
    assert "length mismatch" in capsys.readouterr().err


def test_cli_stabilize_deterministic(tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["stabilize", p, q, "--out", out1]) == 0
    assert main(["stabilize", p, q, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_cli_check_rejects_perturbed_homotopy(tmp_path):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, q, "--out", out]) == 0
    doc = json.load(open(out))
    entry = doc["payload"]["source_homotopy"][1][0][0]
    doc["payload"]["source_homotopy"][1][0][0] = [
        str(int(entry[0]) + 1),
        entry[1],
    ]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(io.dump_canonical(doc))
    assert main(["check", str(mutated)]) == 2


def test_cli_check_verbose_names_the_failing_identity(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, q, "--out", out]) == 0
    doc = json.load(open(out))
    entry = doc["payload"]["forward"][1][0][0]
    doc["payload"]["forward"][1][0][0] = [str(int(entry[0]) + 1), entry[1]]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(io.dump_canonical(doc))
    capsys.readouterr()
    assert main(["check", "--verbose", str(mutated)]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    # d.f1 against f0.d at the first differing entry, over Z[C_2]
    assert "[FAIL] forward map: square at degree 1: entry (0, 0) is -2+2*g1, not -1+g1" in failed
    assert any(line.startswith("[ok  ]") for line in lines)
    assert lines[-1].endswith("checks FAILED")


def test_cli_check_accepts_reversed_certificate(tmp_path):
    # swapping the two sides wholesale is still a valid certificate
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    out = str(tmp_path / "cert.json")
    assert main(["stabilize", p, q, "--out", out]) == 0
    doc = json.load(open(out))
    pay = doc["payload"]
    pay["source"], pay["target"] = pay["target"], pay["source"]
    pay["forward"], pay["backward"] = pay["backward"], pay["forward"]
    pay["source_homotopy"], pay["target_homotopy"] = (
        pay["target_homotopy"],
        pay["source_homotopy"],
    )
    towers = pay["tower_ranks"]
    towers["t"], towers["s"] = towers["s"], towers["t"]
    iso = pay["block_isomorphisms"]
    iso["forward"], iso["backward"] = iso["backward"], iso["forward"]
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(io.dump_canonical(doc))
    assert main(["check", str(reversed_path)]) == 0


def test_cli_generate_validate_flow(tmp_path):
    out = str(tmp_path / "res.json")
    assert main([
        "generate", "--ring", "Fp:2", "--module", "dim:1",
        "--n", "3", "--max-rank", "5", "--seed", "7", "--out", out,
    ]) == 0
    assert main(["validate", out]) == 0


@pytest.mark.parametrize(
    "p,n,max_rank",
    [(2, 4, 8), (5, 4, 8), (7, 4, 8), (2, 3, 6), (3, 3, 6), (11, 3, 6), (13, 3, 6), (17, 3, 6)],
)
def test_cli_round_trip_over_a_prime_field(tmp_path, p, n, max_rank):
    """F_2 to F_13 store entries as bytes, multiply them and eliminate in
    byte lanes (F_13 has a budget of one product term between reductions),
    and files over F_2, F_5 and F_7 are written and read by the codec's
    byte path; F_17 keeps tuples and the per-entry kernels."""
    first, second, cert = (str(tmp_path / name) for name in ("p.json", "q.json", "cert.json"))
    gen = [
        "generate", "--ring", f"Fp:{p}", "--module", "dim:2",
        "--n", str(n), "--max-rank", str(max_rank),
    ]
    assert [
        main([*gen, "--seed", "1", "--out", first]),
        main([*gen, "--seed", "2", "--out", second]),
        main(["stabilize", first, second, "--out", cert]),
        main(["check", cert]),
    ] == [0, 0, 0, 0]


def test_cli_generate_module_presets(tmp_path):
    out = str(tmp_path / "res.json")
    assert main([
        "generate", "--ring", "Z", "--module", "Z+Z/6",
        "--n", "2", "--max-rank", "4", "--seed", "1", "--out", out,
    ]) == 0
    assert main(["validate", out]) == 0
    assert main([
        "generate", "--ring", "Z", "--module", "0",
        "--n", "2", "--max-rank", "2", "--seed", "1",
        "--out", str(tmp_path / "zero.json"),
    ]) == 0


def test_cli_generate_byte_deterministic(tmp_path):
    args = [
        "generate", "--ring", "Z", "--module", "Z/4",
        "--n", "3", "--max-rank", "5", "--seed", "13",
    ]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_cli_generate_group_ring_rejected(tmp_path):
    assert main([
        "generate", "--ring", "Z", "--group", "table.json",
        "--module", "Z", "--out", str(tmp_path / "no.json"),
    ]) == 1


COMMANDS = ["validate", "stabilize", "compare", "check", "generate", "dualize"]
TOP_USAGE = f"usage: chaincert [-h] {{{','.join(COMMANDS)}}} ...\n"


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (
            ["validate"],
            "usage: chaincert validate [-h] [--verbose] path\n"
            "chaincert validate: error: the following arguments are required: path\n",
        ),
        (
            ["stabilize", "p.json"],
            "usage: chaincert stabilize [-h] [--out OUT] [--verbose] first second\n"
            "chaincert stabilize: error: the following arguments are required: second\n",
        ),
        (
            ["compare", "p.json"],
            "usage: chaincert compare [-h] [--verbose] first second\n"
            "chaincert compare: error: the following arguments are required: second\n",
        ),
        (
            ["check"],
            "usage: chaincert check [-h] [--verbose] path\n"
            "chaincert check: error: the following arguments are required: path\n",
        ),
        (["bogus"], TOP_USAGE + "chaincert: error: argument command: invalid choice: 'bogus'"),
        (
            ["check", "x.json", "--bogus"],
            TOP_USAGE + "chaincert: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["generate", "--n", "abc", "--out", "no.json"],
            "usage: chaincert generate [-h] [--ring RING] [--module MODULE] [--n N]\n"
            "                          [--max-rank MAX_RANK] [--seed SEED] --out OUT\n"
            "                          [--verbose]\n"
            "chaincert generate: error: argument --n: invalid int value: 'abc'\n",
        ),
        (
            ["dualize", "x.json"],
            "usage: chaincert dualize [-h] --out OUT [--verbose] path\n"
            "chaincert dualize: error: the following arguments are required: --out\n",
        ),
    ],
    ids=[
        "validate-missing-path", "stabilize-missing-second", "compare-missing-second",
        "check-missing-path", "unknown-command", "unknown-option", "generate-bad-int",
        "dualize-missing-out",
    ],
)
def test_cli_usage_errors_exit_1(argv, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # 2 is kept for mathematically invalid data
    assert main(argv) == 1
    # Python versions quote the list of choices differently: it is not pinned
    assert capsys.readouterr().err.partition(" (choose from ")[0] == stderr


@pytest.mark.parametrize(
    "argv,usage",
    [(["--help"], "usage: chaincert ")]
    + [([command, "--help"], f"usage: chaincert {command} ") for command in COMMANDS],
)
def test_cli_help_exits_0(argv, usage, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(usage)


def test_cli_commands_share_one_process(tmp_path, capsys):
    """Successive commands in one process, a usage error among them, each
    parse their own arguments; compare writes no certificate."""
    p, q, cert = (str(tmp_path / name) for name in ("p.json", "q.json", "cert.json"))
    gen = ["generate", "--ring", "Z", "--module", "Z/2", "--n", "2", "--max-rank", "4"]
    codes = [
        main([*gen, "--seed", "7", "--out", p]),
        main([*gen, "--seed", "8", "--out", q]),
        main(["stabilize", p, q, "--out", cert]),
        main(["check", cert, "--bogus"]),
    ]
    files = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    codes.append(main(["compare", p, q]))
    assert "homology comparison:" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == files
    codes += [main(["check", cert]), main(["validate", p])]
    assert codes == [0, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize(
    "size", [["--n", "0"], ["--n", "-2"], ["--max-rank", "-3"]]
)
def test_cli_generate_rejects_bad_sizes(tmp_path, capsys, size):
    out = tmp_path / "no.json"
    assert main(["generate", "--ring", "Z", "--module", "Z/2", *size, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_generate_rejects_a_dimension_too_large_to_hold(tmp_path, capsys):
    # its d x d augmentation would overflow a list index: one error line
    out = tmp_path / "no.json"
    argv = ["generate", "--ring", "Fp:2", "--module", "dim:99999999999", "--n", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dim:99999999999 is too large")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "ring,preset",
    [("Fp:2", "dim:x"), ("Fp:2", "dim:-1"), ("Fp:2", "dim:"), ("Z", "Z/x"), ("Z", "Z/2.5"), ("Z", "Z+Z/")],
)
def test_cli_generate_names_a_bad_module_preset(tmp_path, capsys, ring, preset):
    # a number that is not an integer, or a negative dimension: one error
    # line naming the preset, not int()'s or the matrix constructor's text
    out = tmp_path / "no.json"
    assert main(["generate", "--ring", ring, "--module", preset, "--n", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad module preset {preset!r}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    assert "invalid literal" not in captured.err
    assert not out.exists()


def test_cli_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a d x d augmentation that fits a list index but not memory; the
    # identity raises at once, so nothing large is allocated
    def no_memory(cls, ring, n):
        raise MemoryError

    monkeypatch.setattr(Matrix, "identity", classmethod(no_memory))
    out = tmp_path / "no.json"
    argv = ["generate", "--ring", "Fp:2", "--module", "dim:1000000000", "--n", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_dualize_round_trip(tmp_path):
    out = str(tmp_path / "res.json")
    assert main([
        "generate", "--ring", "Fp:3", "--module", "dim:2",
        "--n", "2", "--max-rank", "4", "--seed", "3", "--out", out,
    ]) == 0
    dual = str(tmp_path / "dual.json")
    double = str(tmp_path / "double.json")
    assert main(["dualize", out, "--out", dual]) == 0
    assert json.load(open(dual))["payload"]["cochain"] is True
    assert main(["dualize", dual, "--out", double]) == 0
    assert open(out).read() == open(double).read()


@pytest.mark.parametrize("command", ["stabilize", "generate", "dualize"])
def test_cli_unwritable_out_exits_1(tmp_path, capsys, command):
    field_res = generate_resolution(
        ModulePresentation(F2, 2, Matrix(F2, 2, 0, ())), n=2, max_rank=4, seed=3
    )
    p = _write(tmp_path, "p.json", field_res)
    q = _write(tmp_path, "q.json", pad_top(field_res, 1))
    out = tmp_path / "missing" / "out.json"
    argv = {
        "stabilize": ["stabilize", p, q],
        "generate": ["generate", "--ring", "Z", "--module", "Z/2", "--seed", "7"],
        "dualize": ["dualize", p],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_cli_dualize_rejects_integers(tmp_path):
    _, res = canonical_resolution("Z_over_Z", 1)
    p = _write(tmp_path, "p.json", res)
    assert main(["dualize", p, "--out", str(tmp_path / "d.json")]) == 1


def test_cli_compare(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    p = _write(tmp_path, "p.json", res)
    q = _write(tmp_path, "q.json", pad_top(res, 1))
    assert main(["compare", p, q]) == 0
    assert "homology comparison" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# malformed literals: exit 1 with an error line, never a traceback

BAD_CELLS = [
    pytest.param("abc", id="letters"),
    pytest.param("", id="empty"),
    pytest.param("9" * 5000, id="over-long"),
    pytest.param(3, id="number"),
    pytest.param(True, id="bool"),
    pytest.param(None, id="null"),
    pytest.param(["1"], id="list"),
    pytest.param({"a": "1"}, id="dict"),
]


@pytest.fixture(scope="module")
def z_documents():
    pres = ModulePresentation(ZZ, 2, Matrix(ZZ, 2, 1, [6, 0]))
    p = generate_resolution(pres, n=2, max_rank=3, seed=5)
    q = generate_resolution(pres, n=2, max_rank=3, seed=6)
    cert = io.certificate_to_json(total_equivalence(p, q))
    return io.resolution_to_json(p), cert


def _first_cell(matrices):
    """First row of the first nonempty matrix in a list of matrices."""
    for m in matrices:
        if m and m[0]:
            return m[0]
    raise AssertionError("no nonempty matrix")


def _run_bad(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(io.dump_canonical(doc))
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("cell", BAD_CELLS)
@pytest.mark.parametrize("command", ["check", "validate"])
def test_cli_bad_literal_in_certificate(tmp_path, capsys, z_documents, command, cell):
    doc = json.loads(json.dumps(z_documents[1]))
    _first_cell(doc["payload"]["forward"])[0] = cell
    _run_bad(tmp_path, capsys, command, doc)


@pytest.mark.parametrize("cell", BAD_CELLS)
def test_cli_bad_literal_in_resolution(tmp_path, capsys, z_documents, cell):
    doc = json.loads(json.dumps(z_documents[0]))
    _first_cell(doc["payload"]["boundaries"])[0] = cell
    _run_bad(tmp_path, capsys, "validate", doc)


@pytest.mark.parametrize("cell", BAD_CELLS)
@pytest.mark.parametrize("command", ["check", "validate"])
def test_cli_bad_group_ring_coefficient(tmp_path, capsys, command, cell):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    doc = json.loads(json.dumps(doc))
    _first_cell(doc["payload"]["forward"])[0][1] = cell
    _run_bad(tmp_path, capsys, command, doc)


# ---------------------------------------------------------------------------
# hostile shapes stay bounded


def _declared_rank_certificate(rank: int) -> dict:
    """A length-0 certificate whose source declares rank ``rank`` and holds
    no entries: the backward map is rank x 0, every other matrix is empty."""
    return {
        "format_version": "1",
        "kind": "certificate",
        "ring": "Z",
        "payload": {
            "certificate_version": "1",
            "presentation": {"ambient_rank": "0", "relation_count": "0", "relations": []},
            "source": {"ranks": [str(rank)], "boundaries": []},
            "target": {"ranks": ["0"], "boundaries": []},
            "forward": [[]],
            "backward": [[[]] * rank],
            "source_homotopy": [],
            "target_homotopy": [],
            "tower_ranks": {"t": ["0"], "s": ["0"]},
            "block_isomorphisms": {"forward": [[]], "backward": [[]]},
        },
    }


def test_cli_check_large_declared_rank_is_bounded(tmp_path, capsys):
    path = tmp_path / "declared.json"
    path.write_text(io.dump_canonical(_declared_rank_certificate(20000)))
    assert 50_000 < path.stat().st_size < 70_000
    start = perf_counter()
    assert main(["check", str(path)]) == 2
    elapsed = perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < 1.0
    assert len(captured.out) + len(captured.err) < 1024
    assert "[FAIL] tower rank recursion" in captured.out
    assert "skipped" in captured.out


def _interior_rank_resolution(rank: int) -> TruncatedResolution:
    """A Z resolution of the zero module with ranks 0, ``rank``, 0: both
    boundaries are empty, so H_1 = Z^rank and the file is invalid."""
    pres = ModulePresentation(ZZ, 0, Matrix.zeros(ZZ, 0, 0))
    complex_ = ChainComplex(
        ZZ, [0, rank, 0], [Matrix.zeros(ZZ, 0, rank), Matrix.zeros(ZZ, rank, 0)]
    )
    return TruncatedResolution(pres, complex_, Matrix.zeros(ZZ, 0, 0))


def test_large_interior_rank_validates_at_once(tmp_path, capsys):
    res = _interior_rank_resolution(4000)
    start = perf_counter()
    report = validate_resolution(res)
    assert perf_counter() - start < 1.0
    failure = report.first_failure
    assert (failure.name, failure.detail) == ("exact at degree 1", "homology Z^4000")

    path = _write(tmp_path, "interior.json", res)
    assert (tmp_path / "interior.json").stat().st_size < 16_384
    capsys.readouterr()
    start = perf_counter()
    assert main(["validate", path]) == 2
    assert perf_counter() - start < 1.0
    assert "[FAIL] exact at degree 1" in capsys.readouterr().out


def _wide_augmentation_resolution(ambient: int, p0: int, rank: int) -> TruncatedResolution:
    """A Z resolution of Z^ambient (no relations) with ranks ``p0``,
    ``rank``: the augmentation sends the first generator to the first basis
    vector, and d_1 is the zero p0 x rank matrix. aug.d_1 is zero and
    ambient x rank, and the augmentation is onto only if p0 >= ambient."""
    pres = ModulePresentation(ZZ, ambient, Matrix.zeros(ZZ, ambient, 0))
    complex_ = ChainComplex(ZZ, [p0, rank], [Matrix.zeros(ZZ, p0, rank)])
    aug = Matrix.identity(ZZ, ambient).submatrix(range(ambient), range(p0))
    return TruncatedResolution(pres, complex_, aug)


@pytest.mark.parametrize("p0", [0, 1], ids=["empty-augmentation", "zero-d1"])
def test_zero_factor_of_aug_d1_is_not_multiplied_out(p0):
    res = _wide_augmentation_resolution(100, p0, 100_000)
    start = perf_counter()
    report = validate_resolution(res)
    assert perf_counter() - start < 1.0
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("d.d = 0", True, "no adjacent boundary pairs"),
        ("augmentation kills the first boundary", True, ""),
        ("augmentation surjective onto the module", False, f"cokernel Z^{100 - p0}"),
        ("exact at degree 0", False, "skipped: the augmentation checks failed"),
    ]
    tracemalloc.start()
    try:
        validate_resolution(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # the 100 x 100000 zero product alone is 80 MB


def test_wide_augmentation_validates_at_once(tmp_path, capsys):
    path = _write(tmp_path, "wide.json", _wide_augmentation_resolution(100, 0, 100_000))
    assert (tmp_path / "wide.json").stat().st_size < 1_536
    capsys.readouterr()
    start = perf_counter()
    assert main(["validate", path]) == 2
    assert perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "[FAIL] augmentation surjective onto the module: cokernel Z^100\n" in out
    assert max(map(len, out.splitlines())) < 80


def test_huge_declared_top_rank_validates_at_once(tmp_path, capsys):
    # ranks 0, 10^7: the zero product aug.d_1, 100 x 10^7, is never formed
    path = _write(tmp_path, "huge.json", _wide_augmentation_resolution(100, 0, 10**7))
    assert (tmp_path / "huge.json").stat().st_size < 1_536
    capsys.readouterr()
    start = perf_counter()
    assert main(["validate", path]) == 2
    assert perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "[FAIL] augmentation surjective onto the module: cokernel Z^100\n" in out


def test_zero_module_with_a_wide_top_stabilizes_against_itself(tmp_path, capsys):
    """The 217-byte resolution of the zero module with ranks 0, 0, 600 is
    valid. Against itself each degree-2 lift is an integer solve with no
    rows and 600 right-hand columns, done in one pass; the certificate is
    23 MB."""
    pres = ModulePresentation(ZZ, 0, Matrix.zeros(ZZ, 0, 0))
    complex_ = ChainComplex(ZZ, [0, 0, 600], [Matrix.zeros(ZZ, 0, 0), Matrix.zeros(ZZ, 0, 600)])
    res = TruncatedResolution(pres, complex_, Matrix.zeros(ZZ, 0, 0))
    path = _write(tmp_path, "zero.json", res)
    out = str(tmp_path / "cert.json")
    for argv in (["stabilize", path, path, "--out", out], ["check", out]):
        start = perf_counter()
        assert main(argv) == 0
        assert perf_counter() - start < 10.0


def _dense_presentation_document(k: int) -> dict:
    """The n = 1 Z resolution Z^k <- Z^k of coker d_1, with relations d_1
    and the identity augmentation. d_1 is k x k, about 80% nonzero, with
    entries of up to 12 digits drawn from random.Random(1)."""
    rng = random.Random(1)
    d1 = [
        [str(rng.randint(-10**12 + 1, 10**12 - 1)) if rng.random() < 0.8 else "0" for _ in range(k)]
        for _ in range(k)
    ]
    payload = {
        "presentation": {"ambient_rank": str(k), "relation_count": str(k), "relations": d1},
        "ranks": [str(k), str(k)],
        "boundaries": [d1],
        "augmentation": [["1" if i == j else "0" for j in range(k)] for i in range(k)],
        "cochain": False,
    }
    return {"format_version": "1", "kind": "resolution", "ring": "Z", "payload": payload}


def test_dense_twelve_digit_presentation_validates_in_bounded_time(tmp_path, capsys):
    """Four Smith diagonals of 40 x 40 and 40 x 80 matrices with 12-digit
    entries: extended-gcd column combinations grew their entries without
    bound here and did not finish in 60 s."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_presentation_document(40)))
    assert 40_000 < path.stat().st_size < 64_000
    start = perf_counter()
    assert main(["validate", str(path)]) == 0
    assert perf_counter() - start < 10.0
    assert "all 4 checks passed" in capsys.readouterr().out


def test_dense_presentation_stabilizes_against_itself_in_bounded_time(tmp_path, capsys):
    """Every lift between two copies of the 30 x 30 dense resolution is a
    solve through a Hermite form with 12-digit entries: with extended-gcd
    row combinations the transforms grew without bound, and k = 25 took
    8 s while k = 30 did not finish in 60 s."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_presentation_document(30)))
    out = str(tmp_path / "cert.json")
    start = perf_counter()
    assert main(["stabilize", str(path), str(path), "--out", out]) == 0
    assert perf_counter() - start < 10.0
    assert capsys.readouterr().out.endswith(f"certificate written to {out}\n")


def test_verify_certificate_skips_identities_when_ranks_do_not_fit():
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    cert = total_equivalence(res, pad_top(res, 1))
    names = [check.name for check in verify_certificate(cert).checks]
    assert names.index("tower rank recursion") > names.index("second complex: d1.d2 = 0")
    bad = dataclasses.replace(cert, t_ranks=(cert.t_ranks[0] + 1,) + cert.t_ranks[1:])
    report = verify_certificate(bad)
    assert [(check.name, check.ok) for check in report.checks] == [
        ("tower rank recursion", False),
        ("matrix identities", False),
    ]


def _one_short(parts):
    return parts[:-1]


def _one_long(parts):
    return parts + parts[-1:]


def _complex_one_short(c):
    return ChainComplex(c.ring, c.ranks[:-1], c.diffs[:-1])


def _complex_one_long(c):
    return ChainComplex(c.ring, (*c.ranks, 0), (*c.diffs, Matrix.zeros(c.ring, c.ranks[-1], 0)))


COMPONENT_LISTS = ["fwd", "bwd", "src_homotopy", "tgt_homotopy", "iso_fwd", "iso_bwd"]


@pytest.mark.parametrize(
    "field, change",
    [(field, change) for field in COMPONENT_LISTS for change in (_one_short, _one_long)]
    + [("target", _complex_one_short), ("target", _complex_one_long)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_verify_certificate_refuses_a_wrong_component_count(field, change):
    # a short list once raised IndexError, a long one passed, and the file
    # written from it was refused by the reader ("expected 3 matrices")
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    cert = total_equivalence(res, pad_top(res, 1))
    bad = dataclasses.replace(cert, **{field: change(getattr(cert, field))})
    report = verify_certificate(bad)
    assert not report.ok
    assert [(check.name, check.ok) for check in report.checks] == [
        ("tower rank recursion", False),
        ("matrix identities", False),
    ]


HUGE_PRIME = 2**61 - 1  # prime, far above the 2^31 bound


def test_cli_generate_and_stabilize_reject_a_huge_modulus_at_once(tmp_path, capsys):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.resolution_to_json(res)
    doc["ring"] = f"FpG:{HUGE_PRIME}"
    path = tmp_path / "huge.json"
    path.write_text(io.dump_canonical(doc))
    out = str(tmp_path / "out.json")
    for argv in (
        ["generate", "--ring", f"Fp:{HUGE_PRIME}", "--module", "dim:1", "--out", out],
        ["stabilize", str(path), str(path), "--out", out],
    ):
        start = perf_counter()
        assert main(argv) == 1
        assert perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error:")


def test_cli_validate_rejects_a_huge_modulus_at_once(tmp_path, capsys):
    # README's Z/2 input with its ring renamed: no entry is read as a residue
    pres = ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 1, [2]))
    doc = io.resolution_to_json(generate_resolution(pres, n=2, max_rank=4, seed=7))
    doc["ring"] = f"Fp:{HUGE_PRIME}"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = perf_counter()
    assert main(["validate", str(path)]) == 1
    assert perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# one ring-name reader, one exception-to-exit-code map


def test_cli_generate_reads_a_prime_field(tmp_path):
    out = tmp_path / "res.json"
    assert main(["generate", "--ring", "Fp:7", "--module", "dim:1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ring"] == "Fp:7"


@pytest.mark.parametrize("ring", ["Fp:4", f"Fp:{HUGE_PRIME}", "Q", "ZG", "FpG:2"])
def test_cli_generate_rejects_ring_names_like_the_file_reader(tmp_path, capsys, ring):
    out = tmp_path / "no.json"
    assert main(["generate", "--ring", ring, "--module", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    with pytest.raises(io.MalformedFileError) as raised:
        io.ring_from_json({"ring": ring})
    assert err == f"error: {raised.value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{missing}"],
        ["stabilize", "{missing}", "{missing}"],
        ["check", "{missing}"],
        ["dualize", "{missing}", "--out", "{out}"],
    ],
    ids=["validate", "stabilize", "check", "dualize"],
)
def test_cli_missing_input_exits_1(tmp_path, capsys, argv):
    missing, out = tmp_path / "missing.json", tmp_path / "out.json"
    assert main([a.format(missing=missing, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "missing.json" in err
    assert not out.exists()


def test_cli_non_exact_pair_reports_stabilization_failed(tmp_path, capsys, monkeypatch):
    # the first input is not exact at degree 0 (image 4Z instead of 2Z);
    # with input validation waved through, the lift at degree 1 fails
    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))

    def resolution(d):
        return TruncatedResolution(
            pres, ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[d]])]), Matrix.identity(ZZ, 1)
        )

    p = _write(tmp_path, "p.json", resolution(4))
    q = _write(tmp_path, "q.json", resolution(2))
    monkeypatch.setattr(cli, "validate_resolution", lambda res: Report())
    out = tmp_path / "cert.json"
    capsys.readouterr()
    assert main(["stabilize", p, q, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("stabilization failed: no backward lift at degree 1")
    assert captured.err == ""
    assert not out.exists()


@pytest.mark.parametrize("version", ["999", "2", None], ids=["999", "2", "missing"])
def test_cli_check_refuses_an_unknown_certificate_version(tmp_path, capsys, version):
    _, res = canonical_resolution("Z_over_Z[C_2]", 2)
    doc = io.certificate_to_json(total_equivalence(res, pad_top(res, 1)))
    if version is None:
        del doc["payload"]["certificate_version"]
    else:
        doc["payload"]["certificate_version"] = version
    path = tmp_path / "versioned.json"
    path.write_text(io.dump_canonical(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate_version must be '1'")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# over-long integers: one limit, sys.int_max_str_digits, on both sides

DIGIT_LIMIT = 4300  # Python's default sys.int_max_str_digits


@pytest.fixture
def default_digit_limit():
    """Run at the default limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer string conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(before)


def _z_mod(digits: int) -> TruncatedResolution:
    """The resolution 0 <- Z <- Z of Z/N, with N of ``digits`` digits."""
    big = 10 ** (digits - 1) + 7
    pres = ModulePresentation(ZZ, 1, Matrix(ZZ, 1, 1, [big]))
    complex_ = ChainComplex(ZZ, [1, 1], [Matrix(ZZ, 1, 1, [-big])])
    return TruncatedResolution(pres, complex_, Matrix.identity(ZZ, 1))


@pytest.mark.parametrize("digits,code", [(DIGIT_LIMIT, 0), (DIGIT_LIMIT + 1, 1)])
def test_cli_generate_writes_literals_up_to_the_digit_limit(
    tmp_path, capsys, monkeypatch, default_digit_limit, digits, code
):
    monkeypatch.setattr(cli, "generate_resolution", lambda *args, **kwargs: _z_mod(digits))
    out = tmp_path / "g.json"
    capsys.readouterr()
    assert main(["generate", "--ring", "Z", "--module", "Z/2", "--n", "1", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert main(["validate", str(out)]) == 0
        return
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert f"({DIGIT_LIMIT} digits)" in err
    assert not out.exists()


@pytest.mark.parametrize("digits,code", [(DIGIT_LIMIT, 0), (DIGIT_LIMIT + 1, 1)])
def test_cli_reads_literals_up_to_the_digit_limit(
    tmp_path, capsys, default_digit_limit, digits, code
):
    path = tmp_path / "z.json"
    sys.set_int_max_str_digits(0)  # write the file past the limit
    path.write_text(io.dump_canonical(io.resolution_document(_z_mod(digits))))
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    capsys.readouterr()
    assert main(["validate", str(path)]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: bad literal ")
        assert err.endswith(f": {digits} digits, over the limit of {DIGIT_LIMIT} (sys.int_max_str_digits)\n")


def test_bad_integer_field_names_the_digit_limit(default_digit_limit):
    doc = io.resolution_to_json(_z_mod(3))
    doc["payload"]["ranks"][0] = "1" * (DIGIT_LIMIT + 1)
    with pytest.raises(io.MalformedFileError, match="over the limit of 4300"):
        io.resolution_from_json(doc)


# ---------------------------------------------------------------------------
# io.save renders the text before it opens the file


def test_save_that_cannot_render_leaves_no_file(tmp_path, default_digit_limit):
    path = tmp_path / "g.json"
    with pytest.raises(ValueError):
        io.save(str(path), io.resolution_document(_z_mod(DIGIT_LIMIT + 1)))
    assert not path.exists()


def test_no_entry_text_outlives_its_file(tmp_path, default_digit_limit):
    """Entry texts are rendered afresh for each file: the text of an entry
    saved under a raised digit limit is not reused when the same entry is
    saved again under the default limit."""
    res = _z_mod(5000)
    sys.set_int_max_str_digits(6000)
    io.save(str(tmp_path / "raised.json"), io.resolution_document(res))
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    path = tmp_path / "g.json"
    with pytest.raises(ValueError):
        io.save(str(path), io.resolution_document(res))
    assert not path.exists()


def test_save_that_cannot_render_keeps_the_earlier_file(tmp_path, default_digit_limit):
    path = tmp_path / "g.json"
    io.save(str(path), io.resolution_document(_z_mod(3)))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        io.save(str(path), io.resolution_document(_z_mod(DIGIT_LIMIT + 1)))
    assert path.read_bytes() == before


def test_save_that_cannot_render_writes_nothing_into_a_pipe(tmp_path, default_digit_limit):
    """A pipe is written in place, so the whole text is rendered before it
    is opened: the fields sorted before the over-long integer never reach
    the reader."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a writer's open won't block
    try:
        with pytest.raises(ValueError):
            io.save(str(fifo), io.resolution_document(_z_mod(DIGIT_LIMIT + 1)))
        try:
            got = os.read(reader, 1 << 16)
        except BlockingIOError:  # a writer holds the pipe open with nothing in it
            got = b""
    finally:
        os.close(reader)
    assert got == b""
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


# ---------------------------------------------------------------------------
# io.save replaces the file in one step


def test_save_that_fails_part_way_keeps_the_earlier_file(tmp_path, monkeypatch):
    """A write that raises after half the text leaves the earlier file
    whole and no temporary file in the directory."""
    path = tmp_path / "g.json"
    io.save(str(path), io.resolution_document(_z_mod(3)))
    before = path.read_bytes()

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(io, "open", lambda *a, **k: HalfWritten(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        io.save(str(path), io.resolution_document(_z_mod(5)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["g.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_save_gives_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        io.save(str(tmp_path / "g.json"), io.resolution_document(_z_mod(3)))
        io.save(str(tmp_path / "g.json"), io.resolution_document(_z_mod(5)))  # over it
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("{}")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "g.json").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode) == 0o666 & ~umask
    assert io.load(str(tmp_path / "g.json"))[1].presentation.relations.entries == (10**4 + 7,)
    assert sorted(os.listdir(tmp_path)) == ["g.json", "plain.json"]


def test_save_through_a_symlink_replaces_the_file_it_names(tmp_path):
    (tmp_path / "real").mkdir()
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "real" / "g.json")
    io.save(str(link), io.resolution_document(_z_mod(3)))
    io.save(str(link), io.resolution_document(_z_mod(5)))
    assert link.is_symlink()
    assert io.load(str(link))[1].presentation.relations.entries == (10**4 + 7,)
    assert os.listdir(tmp_path / "real") == ["g.json"]


def test_save_into_a_missing_directory_names_the_target(tmp_path):
    path = str(tmp_path / "missing" / "g.json")
    with pytest.raises(FileNotFoundError) as info:
        io.save(path, io.resolution_document(_z_mod(3)))
    assert info.value.filename == path
    assert os.listdir(tmp_path) == []


def test_save_to_a_pipe_writes_into_it(tmp_path):
    """A target that is not a regular file, such as a pipe or /dev/null,
    is written in place, not replaced."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    doc = io.resolution_document(_z_mod(3))
    io.save(str(fifo), doc)
    reader.join(timeout=10)
    assert got == [io.dump_canonical(doc)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


# ---------------------------------------------------------------------------
# what check does not prove (certificate v1)


@pytest.mark.xfail(
    strict=True,
    reason="certificate v1: check never reads payload.presentation; v2 binds it",
)
def test_check_rejects_a_certificate_with_an_edited_presentation(tmp_path):
    p, q, cert = (str(tmp_path / name) for name in ("p.json", "q.json", "cert.json"))
    for seed, out in (("7", p), ("8", q)):
        argv = ["generate", "--ring", "Z", "--module", "Z/2", "--n", "2", "--max-rank", "4"]
        assert main([*argv, "--seed", seed, "--out", out]) == 0
    assert main(["stabilize", p, q, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    doc["payload"]["presentation"]["relations"] = [["3"]]  # Z/3, not Z/2
    with open(cert, "w") as fh:
        json.dump(doc, fh)
    assert main(["check", cert]) == 2
