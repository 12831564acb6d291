"""Command line behaviour: outputs, exit codes, and the dimension cap."""

import json
from pathlib import Path

import pytest

import tensoralg.catalog
from tensoralg.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_algebra(capsys):
    code, out, err = run(capsys, "validate", "builtin:heisenberg(1)")
    assert code == 0
    assert "algebra ok" in out
    assert "dim 3" in out


def test_validate_builtin_pair(capsys):
    code, out, err = run(capsys, "validate", "builtin:pair_center(heisenberg(1))")
    assert code == 0
    assert "pair ok" in out
    assert "ideal dim 1" in out


def test_validate_document_with_violation(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(
        '{"name": "bad", "dim": 3, "basis": ["x", "y", "z"],'
        ' "brackets": {"x,y": {"z": "1"}, "x,z": {"x": "1"}}}'
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 1
    assert "structure" in err


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.json")
    assert code == 1
    assert "cannot read" in err


def test_unknown_selector_is_usage_error(capsys):
    code, out, err = run(capsys, "validate", "builtin:frobenius(2)")
    assert code == 2
    assert "unknown builtin" in err


def test_tensor_human_output(capsys):
    code, out, err = run(capsys, "tensor", "builtin:pair_full(heisenberg(1))")
    assert code == 0
    assert "tensor product: dim 6" in out
    assert "diagonal: dim 3" in out
    assert "exterior product: dim 3" in out
    assert "j2: dim 5" in out
    assert "multiplier: dim 2" in out
    assert "evaluation image in L: dim 1" in out
    assert "all brackets vanish" in out


def test_tensor_machine_output(capsys):
    code, out, err = run(capsys, "tensor", "--machine", "builtin:pair_full(nonabelian2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["tensor"]["dim"] == 2
    assert payload["j2"]["dim"] == 1
    assert payload["brackets"] == {}
    assert payload["tensor"]["basis"] == ["x(x)n0", "y(x)n0"]


def test_tensor_shows_nonabelian_brackets(tmp_path, capsys):
    doc = tmp_path / "sl2-pair.json"
    doc.write_text(
        '{"algebra": {"name": "sl2", "dim": 3, "basis": ["e", "f", "h"],'
        ' "brackets": {"e,f": {"h": "1"}, "e,h": {"e": "-2"}, "f,h": {"f": "2"}}},'
        ' "ideal": "all"}'
    )
    code, out, err = run(capsys, "tensor", str(doc))
    assert code == 0
    assert "tensor product: dim 3" in out
    assert "[t0, t1] =" in out
    assert "evaluation image in L: dim 3" in out


def test_tensor_rejects_algebra_target(capsys):
    code, out, err = run(capsys, "tensor", "builtin:heisenberg(1)")
    assert code == 2
    assert "needs a pair" in err


def test_verify_catalog_pair(capsys):
    code, out, err = run(capsys, "verify", "builtin:pair_center(heisenberg(1))")
    assert code == 0
    assert "asserted-failures=0" in out
    assert "psi-injective=no" in out


def test_verify_theorem_subset(capsys):
    code, out, err = run(capsys, "verify", "--theorems", "kernel,descent",
                         "builtin:pair_full(nonabelian2)")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(lines) == 2


def test_verify_unknown_theorem(capsys):
    code, out, err = run(capsys, "verify", "--theorems", "spectral", "builtin:pair_full(abelian(1))")
    assert code == 2
    assert "unknown check" in err


def test_verify_machine_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--machine", "--out", str(target),
                         "builtin:pair_full(abelian(2))")
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["summary"]["asserted-failures"] == 0


def test_kunneth_command(capsys):
    code, out, err = run(capsys, "kunneth", "builtin:pair_full(nonabelian2)",
                         "builtin:pair_full(abelian(1))")
    assert code == 0
    assert "direct-sum-diagonal" in out
    assert "asserted-failures=0" in out


def test_catalog_listing(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert "builtin:pair_full(heisenberg(1))" in out


def test_catalog_machine(capsys):
    code, out, err = run(capsys, "catalog", "--machine")
    payload = json.loads(out)
    assert len(payload) == 9
    assert payload[0]["selector"] == "builtin:pair_full(abelian(1))"


def test_dimension_cap_refuses_large_pair(monkeypatch, capsys):
    monkeypatch.setenv("TENSORALG_MAX_DIM", "2")
    code, out, err = run(capsys, "tensor", "builtin:pair_full(heisenberg(1))")
    assert code == 2
    assert "cap" in err


def test_dimension_cap_default_allows_catalog(monkeypatch, capsys):
    monkeypatch.delenv("TENSORALG_MAX_DIM", raising=False)
    code, out, err = run(capsys, "verify", "--theorems", "diagram",
                         "builtin:pair_direct_sum(pair_center(heisenberg(1)),pair_full(abelian(1)))")
    assert code == 0


def test_dimension_cap_applies_to_kunneth_sum(monkeypatch, capsys):
    monkeypatch.setenv("TENSORALG_MAX_DIM", "5")
    code, out, err = run(capsys, "kunneth", "builtin:pair_full(heisenberg(1))",
                         "builtin:pair_full(heisenberg(1))")
    assert code == 2
    assert "direct sum" in err


def _abelian_document(dim):
    basis = [f"b{k}" for k in range(dim)]
    return {"name": f"a{dim}", "dim": dim, "basis": basis, "brackets": {}}


@pytest.fixture
def no_building(monkeypatch, tmp_path):
    """Every function that builds an algebra or a pair from a target raises."""

    def refuse(*args):
        raise AssertionError("a target over the cap must not be built")

    for name in ("abelian", "heisenberg", "nonabelian2", "pair_full", "pair_center",
                 "direct_sum_pair", "make_pair", "algebra_from_document"):
        monkeypatch.setattr(tensoralg.catalog, name, refuse)
    monkeypatch.delenv("TENSORALG_MAX_DIM", raising=False)
    (tmp_path / "inline.json").write_text(json.dumps({"algebra": _abelian_document(40), "ideal": "all"}))
    (tmp_path / "a40.json").write_text(json.dumps(_abelian_document(40)))
    (tmp_path / "referenced.json").write_text(json.dumps({"algebra": "a40.json", "ideal": "all"}))
    return tmp_path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tensor", "builtin:pair_center(heisenberg(20))"], "pair dimension 41"),
        (["validate", "builtin:pair_full(abelian(80))"], "pair dimension 80"),
        (["verify", "builtin:pair_direct_sum(pair_full(abelian(5)),pair_full(heisenberg(2)))"],
         "pair dimension 10"),
        (["tensor", "{dir}/inline.json"], "pair dimension 40"),
        (["verify", "{dir}/referenced.json"], "pair dimension 40"),
        (["kunneth", "builtin:pair_full(abelian(5))", "builtin:pair_full(nonabelian2)"],
         "direct sum dimension 7"),
        (["tensor", "builtin:heisenberg(20)"], "names an algebra; this command needs a pair"),
    ],
    ids=["selector", "validate", "direct-sum", "inline-document", "referenced-document",
         "kunneth-sum", "algebra-target"],
)
def test_over_cap_target_is_refused_before_it_is_built(argv, message, no_building, monkeypatch, capsys):
    if argv[0] == "kunneth":
        monkeypatch.setenv("TENSORALG_MAX_DIM", "6")
    code, out, err = run(capsys, *(a.format(dir=no_building) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("tensoralg: ") and message in err
    assert err.count("\n") == 1


def test_invalid_cap_value(monkeypatch, capsys):
    monkeypatch.setenv("TENSORALG_MAX_DIM", "eight")
    code, out, err = run(capsys, "tensor", "builtin:pair_full(abelian(1))")
    assert code == 2
    assert "TENSORALG_MAX_DIM" in err


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_out_to_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "tensor", "builtin:pair_full(abelian(1))", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"tensoralg: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_deeply_nested_selector_is_refused_before_evaluation(monkeypatch, capsys):
    def no_evaluation(node):
        raise AssertionError("a refused selector must not be evaluated")

    monkeypatch.setattr(tensoralg.catalog, "_eval_node", no_evaluation)
    selector = "builtin:" + "pair_full(" * 1200 + "abelian(1)" + ")" * 1200
    code, out, err = run(capsys, "validate", selector)
    assert code == 2
    assert "nests deeper" in err


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("tensor_pair_full_heisenberg1.txt", ["tensor", "builtin:pair_full(heisenberg(1))"]),
        ("tensor_pair_full_heisenberg1.json", ["tensor", "--machine", "builtin:pair_full(heisenberg(1))"]),
        (
            "kunneth_nonabelian2_abelian1.json",
            ["kunneth", "--machine", "builtin:pair_full(nonabelian2)", "builtin:pair_full(abelian(1))"],
        ),
    ],
)
def test_output_matches_golden_bytes(golden, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (DATA / golden).read_bytes()
