"""Command line behaviour: outputs, exit codes, and the dimension cap."""

import argparse
import builtins
import json
import os
from collections import Counter
from pathlib import Path

import pytest

import tensoralg.catalog
import tensoralg.cli
import tensoralg.tensor
from tensoralg.cli import main
from tensoralg.linalg import Subspace
from tensoralg.pairs import make_pair

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
                 "direct_sum_pair", "make_pair", "algebra_from_document", "_algebra_document"):
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
        (["validate", "builtin:heisenberg(40)"], "algebra dimension 81"),
        (["validate", "{dir}/a40.json"], "algebra dimension 40"),
    ],
    ids=["selector", "validate", "direct-sum", "inline-document", "referenced-document",
         "kunneth-sum", "algebra-target", "algebra-selector", "algebra-document"],
)
def test_over_cap_target_is_refused_before_it_is_built(argv, message, no_building, monkeypatch, capsys):
    if argv[0] == "kunneth":
        monkeypatch.setenv("TENSORALG_MAX_DIM", "6")
    code, out, err = run(capsys, *(a.format(dir=no_building) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("tensoralg: ") and message in err
    assert err.count("\n") == 1


HEISENBERG1_PAIR = {
    "algebra": {"name": "h1", "dim": 3, "basis": ["x", "y", "z"], "brackets": {"x,y": {"z": "1"}}},
    "ideal": "all",
}


def _all_symbols_as_relations(pair):
    return Subspace.full(pair.left_dim * pair.right_dim)


def _line_as_ideal(algebra):
    # the checked make_pair refuses the line spanned by x, as [y, x] = -z leaves it
    return make_pair(algebra, [[1, 0, 0]])


def _relations_in_wrong_space(pair, seed):
    return Subspace.zero(seed.ambient_dim + 1)


@pytest.mark.parametrize("command", ["tensor", "verify"])
@pytest.mark.parametrize(
    "document, patch, message",
    [
        (HEISENBERG1_PAIR, (tensoralg.tensor, "relation_seed", _all_symbols_as_relations),
         "left collapse n . l does not kill the relations"),
        (HEISENBERG1_PAIR, (tensoralg.catalog, "pair_full", _line_as_ideal),
         "bracket of basis element 1 leaves the span"),
        (HEISENBERG1_PAIR, (tensoralg.tensor, "closure", _relations_in_wrong_space),
         "subspace does not match ambient dimension"),
    ],
    ids=["TensorConstructionError", "NotAnIdealError", "LinalgError"],
)
def test_construction_errors_exit_1_with_one_line(document, patch, message, command, tmp_path, monkeypatch, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps(document))
    monkeypatch.setattr(*patch)
    code, out, err = run(capsys, command, str(doc))
    assert code == 1
    assert out == ""
    assert err == f"tensoralg: {message}\n"


@pytest.mark.parametrize("command", ["tensor", "verify"])
def test_document_ideal_that_is_not_an_ideal_exits_1_with_one_line(command, tmp_path, capsys):
    # [y, x] = -z leaves the line spanned by x: the checked make_pair refuses it
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({**HEISENBERG1_PAIR, "ideal": [["1", "0", "0"]]}))
    code, out, err = run(capsys, command, str(doc))
    assert code == 1
    assert out == ""
    assert err == "tensoralg: ideal is not an ideal (witness: basis element 1, vector (1, 0, 0))\n"


# A file that is not UTF-8 text, or JSON nested deeper than the decoder
# follows, is refused in one line with exit 1, read as the target or as the
# algebra a pair document references.
UNREADABLE = {
    "not-utf8": (b'{"name": "\xff", "dim": 0, "basis": [], "brackets": {}}',
                 "cannot read {what}: not UTF-8 text (witness: byte 0xff)"),
    "too-deep": (b"[" * 100_000 + b"]" * 100_000, "JSON nests too deeply to decode"),
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("referenced", [False, True], ids=["document", "referenced-algebra"])
@pytest.mark.parametrize("command", ["validate", "tensor", "verify"])
def test_unreadable_document_exits_1_with_one_line(fault, referenced, command, tmp_path, capsys):
    content, message = UNREADABLE[fault]
    (tmp_path / "algebra.json").write_bytes(content)
    target, what = tmp_path / "algebra.json", "document"
    if referenced:
        (tmp_path / "pair.json").write_text('{"algebra": "algebra.json", "ideal": "all"}')
        target, what = tmp_path / "pair.json", "referenced algebra"
    code, out, err = run(capsys, command, str(target))
    assert code == 1
    assert out == ""
    assert err == f"tensoralg: {message.format(what=what)}\n"


# A JSON escape can spell a lone surrogate, which decodes to a str that no
# UTF-8 output can hold.  A basis name holding one is refused where the
# document is read, inline or referenced, before anything is built or written.
SURROGATE_ALGEBRA = {"name": "h1", "dim": 3, "basis": ["x", "y", "z\ud800"], "brackets": {"x,y": {"z\ud800": "1"}}}


@pytest.mark.parametrize("referenced", [False, True], ids=["inline", "referenced-algebra"])
@pytest.mark.parametrize("argv", [["validate"], ["tensor"], ["tensor", "--out", "{out}"], ["verify"]], ids=" ".join)
def test_lone_surrogate_basis_name_exits_1_with_one_line(argv, referenced, tmp_path, capsys):
    algebra = SURROGATE_ALGEBRA
    if referenced:
        (tmp_path / "algebra.json").write_text(json.dumps(algebra))
        algebra = "algebra.json"
    (tmp_path / "pair.json").write_text(json.dumps({"algebra": algebra, "ideal": "all"}))
    out_file = tmp_path / "out.txt"
    code, out, err = run(capsys, argv[0], str(tmp_path / "pair.json"), *(a.format(out=out_file) for a in argv[1:]))
    assert code == 1
    assert out == ""
    assert err == "tensoralg: basis name does not encode as UTF-8 (witness: 'z\\ud800')\n"
    assert not out_file.exists()


# A document that names one bracket pair twice, or holds a basis name that no
# bracket key can name, is refused where it is read: one line, exit 1.
REFUSED_ALGEBRAS = {
    "pair-named-twice": (
        '{"name": "h1", "dim": 3, "basis": ["x", "y", "z"], "brackets": {"x,y": {"z": "1"}, "x, y": {"z": "2"}}}',
        "tensoralg: line 1 col 112: bracket pair is named twice (witness: x, y)\n",
    ),
    "comma-in-name": (
        '{"name": "c", "dim": 2, "basis": ["a,b", "y"], "brackets": {}}',
        "tensoralg: basis name cannot be named in a bracket key (witness: 'a,b')\n",
    ),
    "space-in-name": (
        '{"name": "c", "dim": 2, "basis": [" x", "y"], "brackets": {}}',
        "tensoralg: basis name cannot be named in a bracket key (witness: ' x')\n",
    ),
}


@pytest.mark.parametrize("fault", sorted(REFUSED_ALGEBRAS))
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_unnameable_bracket_document_exits_1_with_one_line(fault, command, tmp_path, capsys):
    algebra, message = REFUSED_ALGEBRAS[fault]
    (tmp_path / "pair.json").write_text('{"ideal": "all", "algebra": ' + algebra + "}")
    code, out, err = run(capsys, command, str(tmp_path / "pair.json"))
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("command", ["tensor", "verify", "kunneth"])
def test_referenced_algebra_document_is_read_once_per_load(command, tmp_path, monkeypatch, capsys):
    """Each document and each algebra it references is opened once: the plan
    that sized the target builds it from what was read."""
    (tmp_path / "h1.json").write_text(
        '{"name": "h1", "dim": 3, "basis": ["x", "y", "z"], "brackets": {"x,y": {"z": "1"}}}'
    )
    (tmp_path / "centre.json").write_text('{"algebra": "h1.json", "ideal": [["0", "0", "1"]]}')
    (tmp_path / "a1.json").write_text('{"name": "a1", "dim": 1, "basis": ["a"], "brackets": {}}')
    (tmp_path / "line.json").write_text('{"algebra": "a1.json", "ideal": "all"}')
    targets = [str(tmp_path / "centre.json")]
    if command == "kunneth":
        targets.append(str(tmp_path / "line.json"))
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[os.path.basename(str(file))] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, err = run(capsys, command, *targets)
    assert (code, err) == (0, "")
    expected = {"centre.json": 1, "h1.json": 1}
    if command == "kunneth":
        expected.update({"line.json": 1, "a1.json": 1})
    assert opened == expected


def test_unknown_theorem_is_refused_before_the_pair_is_built(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an unknown check must be refused before the pair is built")

    monkeypatch.setattr(tensoralg.catalog, "pair_full", refuse)
    code, out, err = run(capsys, "verify", "--theorems", "diagram,spectral", "builtin:pair_full(abelian(1))")
    assert code == 2
    assert err.startswith("tensoralg: unknown check 'spectral'") and err.count("\n") == 1


def test_invalid_cap_value(monkeypatch, capsys):
    monkeypatch.setenv("TENSORALG_MAX_DIM", "eight")
    code, out, err = run(capsys, "tensor", "builtin:pair_full(abelian(1))")
    assert code == 2
    assert "TENSORALG_MAX_DIM" in err


def test_negative_cap_value(monkeypatch, capsys):
    # refused as a setting, not read as a cap that even a dimension 0 exceeds
    monkeypatch.setenv("TENSORALG_MAX_DIM", "-1")
    code, out, err = run(capsys, "validate", "builtin:abelian(0)")
    assert (code, out) == (2, "")
    assert err == "tensoralg: TENSORALG_MAX_DIM is negative: '-1'\n"


@pytest.mark.parametrize("theorems", ["diagram,diagram", "kernel,diagram,kernel", ","])
def test_repeated_or_empty_theorem_list_is_refused(theorems, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a refused check list must be refused before the pair is built")

    monkeypatch.setattr(tensoralg.catalog, "pair_full", refuse)
    code, out, err = run(capsys, "verify", "--theorems", theorems, "builtin:pair_full(abelian(1))")
    assert (code, out) == (2, "")
    message = "no check named" if theorems == "," else "is named twice"
    assert err.startswith("tensoralg: ") and message in err and err.count("\n") == 1


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_two_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tensoralg.cli._build_parser.cache_clear()
    assert run(capsys, "validate", "builtin:heisenberg(1)")[0] == 0
    assert built[0] == "tensoralg"
    first = len(built)
    assert run(capsys, "validate", "builtin:abelian(2)")[0] == 0
    assert len(built) == first
    # usage errors and --help read the same on a shared parser
    for argv in (["--help"], ["tensor"], ["verify", "--bogus", "x"]):
        assert run(capsys, *argv) == run(capsys, *argv)
    assert len(built) == first


def test_tensor_command_reads_one_derivation(monkeypatch, capsys):
    built = Counter()
    for name in ("construct_tensor", "kappa_maps"):
        original = getattr(tensoralg.cli, name)

        def counting(*args, name=name, original=original):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(tensoralg.cli, name, counting)
    code, out, err = run(capsys, "tensor", "builtin:pair_full(heisenberg(1))")
    assert code == 0
    assert out.encode("utf-8") == (DATA / "tensor_pair_full_heisenberg1.txt").read_bytes()
    assert built == {"construct_tensor": 1, "kappa_maps": 1}


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
        (
            "kunneth_center_heisenberg1_abelian1.txt",
            ["kunneth", "builtin:pair_center(heisenberg(1))", "builtin:pair_full(abelian(1))"],
        ),
    ],
)
def test_output_matches_golden_bytes(golden, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (DATA / golden).read_bytes()


@pytest.mark.parametrize("command", ["tensor", "verify"])
@pytest.mark.parametrize(
    "stem, document",
    [
        ("dim0", {"algebra": {"name": "zero", "dim": 0, "basis": [], "brackets": {}}, "ideal": "all"}),
        ("zero_ideal", {"algebra": HEISENBERG1_PAIR["algebra"], "ideal": []}),
    ],
    ids=["dimension-0-algebra", "zero-ideal"],
)
def test_machine_output_on_empty_spaces_matches_golden_bytes(stem, document, command, tmp_path, monkeypatch, capsys):
    # Every subspace, quotient and action table here is empty; the pair id is
    # the document path as given, so the document is named relative to its folder.
    (tmp_path / f"{stem}.json").write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--machine", f"{stem}.json")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (DATA / f"{command}_{stem}.json").read_bytes()
