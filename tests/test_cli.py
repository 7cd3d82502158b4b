import json
import subprocess
import sys

import numpy as np
import pytest

from soficlab import parse_graph
from soficlab.almost_auto import VertexMap, format_map_text, parse_map_text
from soficlab.cli import build_parser, run


def read_json(path):
    return json.loads(path.read_text())


def test_gen_cayley_z6(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 6
    assert g.action("g1").tolist() == [1, 2, 3, 4, 5, 0]
    manifest = read_json(tmp_path / "g.json.manifest.json")
    assert manifest["command"] == "gen"
    assert manifest["outputs"] == [str(out)]


def test_gen_random_seeded(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert run(["gen", "random", "--n", "50", "--pairs", "2", "--seed", "7", "-o", str(a)]) == 0
    assert run(["gen", "random", "--n", "50", "--pairs", "2", "--seed", "7", "-o", str(b)]) == 0
    assert run(["gen", "random", "--n", "50", "--pairs", "2", "--seed", "8", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_cayley_from_table_file(tmp_path):
    table_path = tmp_path / "t.json"
    table_path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "generators": [1]}))
    out = tmp_path / "g.json"
    assert run(["gen", "cayley", "--table", str(table_path), "-o", str(out)]) == 0
    assert parse_graph(out.read_text()).n == 2


def test_cheeger_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(g)])
    out = tmp_path / "cheeger.json"
    assert run(["cheeger", str(g), "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["kind"] == "exact"
    assert doc["value"] == [2, 3]
    assert len(doc["witness"]) == 3
    assert abs(doc["lambda2"] - 0.5) < 1e-8


def test_cheeger_interval_above_limit(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z30", "-o", str(g)])
    out = tmp_path / "cheeger.json"
    assert run(["cheeger", str(g), "--exact-limit", "24", "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["kind"] == "interval"
    assert doc["lower"] <= doc["upper"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "tol=nan, max_iter=10000"),
        (["--tol", "-1"], "tol=-1.0, max_iter=10000"),
        (["--tol", "0"], "tol=0.0, max_iter=10000"),
        (["--tol", "inf"], "tol=inf, max_iter=10000"),
        (["--max-iter", "0"], "tol=1e-10, max_iter=0"),
        (["--max-iter", "-3"], "tol=1e-10, max_iter=-3"),
    ],
)
def test_cheeger_rejects_invalid_lanczos_stopping_flags(tmp_path, capsys, flags, message):
    message = f"need a positive finite tol and max_iter >= 1, got {message}"
    g = tmp_path / "g.json"
    assert run(["gen", "random", "--n", "200", "--pairs", "2", "--seed", "1", "-o", str(g)]) == 0
    capsys.readouterr()
    assert run(["cheeger", str(g), *flags, "-o", str(tmp_path / "out.json")]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "ValueError", "message": message}}
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("d", range(5, 11))
def test_cheeger_interval_is_certified_on_hypercubes(tmp_path, d):
    # Cay(Z2^d) is the d-cube Q_d, where h = 1 = d (1 - lambda2) / 2 exactly
    g = tmp_path / "g.json"
    assert run(["gen", "cayley", "--group", "x".join(["z2"] * d), "-o", str(g)]) == 0
    for tol in ("1e-4", "1e-6"):
        out = tmp_path / f"cheeger-{tol}.json"
        assert run(["cheeger", str(g), "--tol", tol, "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["kind"] == "interval"
        assert doc["lower_certified"] is True and doc["converged"] is True
        assert 1 - 1e-6 <= doc["lower"] <= 1 <= doc["upper"]


def test_sofic_subcommand_with_word_file(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(g)])
    words = tmp_path / "w.txt"
    words.write_text("g1 g1 g1 g1 g1 g1\n! g1\n")
    out = tmp_path / "sofic.json"
    assert run(["sofic", str(g), "--words", str(words), "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["max_defect"] == 0.0
    assert len(doc["words"]) == 2


def test_improve_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z12", "--gens", "1,11", "-o", str(g)])
    base = np.roll(np.arange(12), -3)
    corrupted = base.copy()
    corrupted[[2, 7]] = corrupted[[7, 2]]
    map_path = tmp_path / "m.txt"
    map_path.write_text(format_map_text(VertexMap(corrupted)))
    out = tmp_path / "out.map"
    assert run(["improve", str(g), "--map", str(map_path), "--delta", "0.0", "-o", str(out)]) == 0
    improved = parse_map_text(out.read_text())
    assert improved.images.tolist() == base.tolist()
    trace = read_json(tmp_path / "out.map.trace.json")
    assert trace["final"]["bad_edges"] == 0
    assert trace["target_met"] is True


def test_improve_with_a_reference_graph(tmp_path, capsys):
    s4, z5 = tmp_path / "s4.json", tmp_path / "z5.json"
    run(["gen", "cayley", "--group", "s4", "-o", str(s4)])
    run(["gen", "cayley", "--group", "z5", "-o", str(z5)])
    identity = tmp_path / "identity.txt"
    identity.write_text(format_map_text(VertexMap.identity(24)))
    out = tmp_path / "out.txt"
    argv = ["improve", str(s4), "--map", str(identity), "--radius", "2", "-o", str(out)]
    assert run(argv + ["--reference", str(s4)]) == 0
    assert read_json(tmp_path / "out.txt.trace.json")["t_size"] == 24
    assert read_json(tmp_path / "out.txt.manifest.json")["inputs"] == [str(s4), str(identity), str(s4)]
    capsys.readouterr()
    assert run(argv[:-2] + ["--reference", str(z5)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "GeneratorSetMismatch"


def test_cluster_group_auto(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(g)])
    out = tmp_path / "cg.json"
    assert run(["cluster-group", str(g), "--auto", "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["order"] == 6
    assert doc["element_orders"] == [1, 2, 3, 3, 6, 6]
    assert doc["abelian"] is True


def test_cluster_group_with_map_files(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z5", "--gens", "1,4", "-o", str(g)])
    m = tmp_path / "m.txt"
    m.write_text(format_map_text(VertexMap(np.roll(np.arange(5), -1))))
    out = tmp_path / "cg.json"
    assert run(["cluster-group", str(g), "--map", str(m), "-o", str(out)]) == 0
    assert read_json(out)["order"] == 5


def test_lef_check_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "s3xz4", "-o", str(g)])
    words = tmp_path / "f.txt"
    words.write_text("()\ng1\n")
    out = tmp_path / "cert.json"
    assert run(["lef-check", str(g), "--gamma", "g8,g12,g16", "--words", str(words),
                "--delta", "0", "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["status"] == "certified"
    assert doc["group_order"] == 4


def test_report_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z4", "--gens", "2", "-o", str(g)])
    out = tmp_path / "rep.json"
    assert run(["report", str(g), "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc == {
        "n": 4,
        "degree": 1,
        "symbols": ["g2"],
        "inverse_pairs": [["g2", "g2"]],
        "connected": False,
        "components": 2,
        "simple": True,
        "loops": 0,
    }


def test_domain_error_exit_code_and_document(tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = run(["gen", "cayley", "--group", "z4", "--gens", "1", "-o", str(out)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NotInverseClosed"
    assert not out.exists()  # no partial artifacts


def test_usage_error_exit_code():
    assert run(["cheeger", "--bogus-flag"]) == 2
    assert run([]) == 2
    # --seed and --kappa are taken only where a handler reads them
    for argv in (
        ["gen", "cayley", "--group", "z3", "-o", "g.json", "--seed", "1"],
        ["sofic", "g.json", "--seed", "1"],
        ["improve", "g.json", "--map", "m.txt", "--seed", "1"],
        ["cluster-group", "g.json", "--auto", "--seed", "1"],
        ["lef-check", "g.json", "--gamma", "a", "--words", "w.txt", "--seed", "1"],
        ["report", "g.json", "--seed", "1"],
        ["cluster-group", "g.json", "--kappa", "0.5"],
        ["lef-check", "g.json", "--gamma", "a", "--words", "w.txt", "--kappa", "0.5"],
    ):
        assert run(argv) == 2, argv
    assert build_parser().parse_args(["improve", "g.json", "--map", "m.txt", "--kappa", "0.5"]).kappa == 0.5


def test_exact_cheeger_beyond_memory_is_an_error_document(tmp_path, capsys):
    # 48 vertices ask cheeger_exact for a 2^48-entry table (1 PiB), which no
    # allocator can give
    g = tmp_path / "g.json"
    assert run(["gen", "cayley", "--group", "z48", "-o", str(g)]) == 0
    capsys.readouterr()
    assert run(["cheeger", str(g), "--exact-limit", "48"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"].endswith("MemoryError")
    assert "Traceback" not in err


def test_missing_input_is_a_domain_error(tmp_path, capsys):
    rc = run(["cheeger", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"format_version": 1, "n": "3", "generators": []}',
        '{"format_version": 1, "n": 3, "generators": 5}',
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "perm": [1, 0]}]}',
        "not json",
        # a -> b, b -> c, c -> b: the inverse pairing is not an involution
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "inverse": "b", "perm": [0, 1]},'
        ' {"name": "b", "inverse": "c", "perm": [0, 1]}, {"name": "c", "inverse": "b", "perm": [0, 1]}]}',
        # duplicate generator names
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "inverse": "a", "perm": [1, 0]},'
        ' {"name": "a", "inverse": "a", "perm": [0, 1]}]}',
    ],
)
def test_malformed_graph_file_is_a_domain_error(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    for argv in (["report", str(path)], ["cheeger", str(path), "-o", str(tmp_path / "c.json")]):
        assert run(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "InvalidGraphFile"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize(
    "n, generators",
    [(0, [{"name": "a", "inverse": "a", "perm": []}]), (1, [{"name": "a", "inverse": "a", "perm": [0]}]), (3, [])],
    ids=["n0", "n1", "no-generators"],
)
def test_degenerate_graph_gives_a_document_not_a_traceback(tmp_path, capsys, n, generators):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"format_version": 1, "n": n, "generators": generators}))
    m = tmp_path / "m.txt"
    m.write_text(format_map_text(VertexMap(np.arange(n))))
    words = tmp_path / "w.txt"
    words.write_text("()\n")
    gamma = ",".join(gen["name"] for gen in generators) or ","
    runs = [
        ["cheeger", g],
        ["sofic", g],
        ["report", g],
        ["improve", g, "--map", m],
        ["cluster-group", g, "--auto"],
        ["lef-check", g, "--gamma", gamma, "--words", words],
    ]
    for argv in runs:
        assert run([str(a) for a in argv]) in (0, 1), argv
        out, err = capsys.readouterr()
        assert isinstance(json.loads(out), dict)
        assert "Traceback" not in err


def test_empty_seed_or_word_list_names_its_cause(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format_version": 1, "n": 0, "generators": [{"name": "a", "inverse": "a", "perm": []}]}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format_version": 1, "n": 3, "generators": []}))
    s3 = tmp_path / "s3.json"
    run(["gen", "cayley", "--group", "s3", "-o", str(s3)])
    capsys.readouterr()
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
    out = tmp_path / "never.json"
    one_source = "gen cayley needs exactly one of --group / --table"
    runs = [
        (["gen", "cayley", "--group", "s3", "--table", table, "-o", out], one_source),
        (["gen", "cayley", "-o", out], one_source),
        (["gen", "cayley", "--group", "s3", "--gens", ",", "-o", out], "--gens lists no element"),
        (["gen", "cayley", "--table", table, "-o", out], "the table file lists no generators: pass --gens"),
        (["gen", "cayley", "--group", "z1", "-o", out], "the preset z1 has no default generators: pass --gens"),
        (["cluster-group", empty, "--auto"], "--auto found no automorphism: the graph has n=0 vertices"),
        (["cluster-group", s3], "no seed maps: pass --map or --auto"),
        (["sofic", bare], "no reduced words: the graph has no generators"),
        (["sofic", s3, "--max-len", "0"], "no reduced words: --max-len 0 allows no nonempty word"),
    ]
    for argv, message in runs:
        assert run([str(a) for a in argv]) == 1, argv
        assert json.loads(capsys.readouterr().out)["error"]["message"] == message
    assert not out.exists()


def test_improving_on_a_graph_without_generators_is_a_domain_error(tmp_path, capsys):
    # the identity is an exact automorphism of the bare graph, and still no
    # improvement workspace exists for it
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format_version": 1, "n": 3, "generators": []}))
    identity = tmp_path / "id.map"
    identity.write_text("0\n1\n2\n")
    for argv in (["cluster-group", bare, "--map", identity], ["improve", bare, "--map", identity]):
        assert run([str(a) for a in argv]) == 1, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"error": {"type": "ValueError", "message": "graph has no generators"}}


def test_lef_check_without_gamma_labels_is_a_domain_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "s3xz4", "-o", str(g)])
    words = tmp_path / "w.txt"
    words.write_text("()\n")
    capsys.readouterr()
    assert run(["lef-check", str(g), "--gamma", ",", "--words", str(words)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "graph has no generators"


@pytest.mark.parametrize(
    "table_doc, gens",
    [
        ("[1]", None),
        ('{"table": [[0]], "generators": "x"}', None),
        ('{"table": [[0, 1], [1, 0]], "generators": [5]}', None),
        (None, "9"),
        ("not json", None),
    ],
)
def test_malformed_table_input_is_a_domain_error(tmp_path, capsys, table_doc, gens):
    out = tmp_path / "g.json"
    if table_doc is None:
        argv = ["gen", "cayley", "--group", "s3", "--gens", gens, "-o", str(out)]
    else:
        (tmp_path / "t.json").write_text(table_doc)
        argv = ["gen", "cayley", "--table", str(tmp_path / "t.json"), "-o", str(out)]
    assert run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "InvalidTable"
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "x", "s4x", "z2xx"])
def test_malformed_group_name_is_a_domain_error(tmp_path, capsys, name):
    out = tmp_path / "g.json"
    assert run(["gen", "cayley", "--group", name, "-o", str(out)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "unknown group name" in doc["error"]["message"]
    assert not out.exists()


def test_manifest_replay_byte_identical(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(g)])
    out = tmp_path / "cheeger.json"
    run(["cheeger", str(g), "-o", str(out)])
    manifest = read_json(tmp_path / "cheeger.json.manifest.json")
    before = out.read_bytes()
    assert run(manifest["argv"]) == 0
    assert out.read_bytes() == before


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "soficlab.cli", "gen", "cayley", "--group", "z3", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_graph(out.read_text()).n == 3


def test_map_file_with_a_huge_integer_is_a_domain_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "z5", "--gens", "1,4", "-o", str(g)])
    m = tmp_path / "m.txt"
    m.write_text("1\n2\n99999999999999999999999\n4\n0\n")
    for argv in (["improve", str(g), "--map", str(m), "-o", str(tmp_path / "out.map")],
                 ["cluster-group", str(g), "--map", str(m), "-o", str(tmp_path / "cg.json")]):
        assert run(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "InvalidMapFile"
        assert "line 3" in doc["error"]["message"]
    assert not list(tmp_path.glob("out.map*")) and not (tmp_path / "cg.json").exists()


def test_non_finite_alpha_and_delta_are_domain_errors(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "s3xz4", "-o", str(g)])
    m = tmp_path / "m.txt"
    m.write_text(format_map_text(VertexMap(np.arange(24))))
    words = tmp_path / "f.txt"
    words.write_text("()\n")
    runs = [
        ["improve", str(g), "--map", str(m), "--alpha", "nan"],
        ["improve", str(g), "--map", str(m), "--delta", "nan"],
        ["cluster-group", str(g), "--map", str(m), "--delta", "nan"],
        ["lef-check", str(g), "--gamma", "g8,g12,g16", "--words", str(words), "--delta", "nan"],
    ]
    for argv in runs:
        assert run(argv + ["-o", str(tmp_path / "out")]) == 1, argv
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("text, error", [("g1 zz\n", "UnknownSymbol"), ("", "ValueError"), ("# a comment\n\n", "ValueError")])
def test_word_file_errors_are_json_documents(tmp_path, capsys, text, error):
    g = tmp_path / "g.json"
    run(["gen", "cayley", "--group", "s3xz4", "-o", str(g)])
    capsys.readouterr()
    words = tmp_path / "w.txt"
    words.write_text(text)
    runs = [
        ["sofic", str(g), "--words", str(words)],
        ["lef-check", str(g), "--gamma", "g8,g12,g16", "--words", str(words), "--delta", "0"],
    ]
    for argv in runs:
        assert run(argv + ["-o", str(tmp_path / "out.json")]) == 1, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == error, doc
        if error == "ValueError":
            assert doc["error"]["message"] == "word list must be nonempty"
    assert not list(tmp_path.glob("out*"))
