"""Builtins, selectors, document round-trips, and report rendering."""

import json
import os
from fractions import Fraction

import pytest

from tensoralg.catalog import (
    AlgebraDocument,
    DocumentError,
    PairDocument,
    SelectorError,
    algebra_from_document,
    catalog_pairs,
    catalog_selectors,
    heisenberg,
    load_path,
    nonabelian2,
    pair_from_document,
    parse,
    resolve_selector,
    serialize,
    serialize_report,
)
from tensoralg.liealg import LieAlgebra
from tensoralg.pairs import Pair
from tensoralg.verify import verify_pair

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_heisenberg_family():
    h2 = heisenberg(2)
    assert h2.dim == 5
    assert h2.basis_names == ("x1", "x2", "y1", "y2", "z")
    assert h2.bracket_entries(0, 2) == ((4, 1),)  # [x1, y1] = z
    assert h2.bracket_entries(1, 3) == ((4, 1),)  # [x2, y2] = z
    assert h2.bracket_entries(0, 3) == ()  # [x1, y2]
    assert h2.brackets == (((0, 2), h2.basis_vector(4)), ((1, 3), h2.basis_vector(4)))


def test_catalog_selectors_resolve():
    pairs = catalog_pairs()
    assert len(pairs) == 9
    dims = {sel: (p.left_dim, p.right_dim) for sel, p in pairs}
    assert dims["builtin:pair_full(heisenberg(1))"] == (3, 3)
    assert dims["builtin:pair_center(heisenberg(1))"] == (3, 1)
    assert dims["builtin:pair_direct_sum(pair_full(nonabelian2),pair_full(abelian(1)))"] == (3, 3)
    assert dims["builtin:pair_direct_sum(pair_center(heisenberg(1)),pair_full(abelian(1)))"] == (4, 2)
    assert all(isinstance(p, Pair) for _, p in pairs)


def test_selector_accepts_whitespace_and_bare_names():
    alg = resolve_selector(" nonabelian2 ")
    assert isinstance(alg, LieAlgebra)
    pair = resolve_selector("builtin:pair_direct_sum( pair_full(abelian(1)) , pair_full(abelian(1)) )")
    assert pair.left_dim == 2


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "builtin:",
        "frobenius(2)",
        "abelian",
        "abelian(1,2)",
        "abelian(x)",
        "pair_full(pair_full(abelian(1)))",
        "pair_direct_sum(abelian(1),abelian(1))",
        "abelian(2))",
        "abelian(2",
        "3",
        "pair_full(abelian(2)) extra",
    ],
)
def test_selector_errors(bad):
    with pytest.raises(SelectorError):
        resolve_selector(bad)


def test_algebra_document_round_trip():
    text = '{"name": "h1", "dim": 3, "basis": ["x", "y", "z"], "brackets": {"x,y": {"z": "1"}}}'
    doc = parse(text)
    assert isinstance(doc, AlgebraDocument)
    assert doc.brackets == (((0, 1), (Fraction(0), Fraction(0), Fraction(1))),)
    assert parse(serialize(doc)) == doc
    algebra = algebra_from_document(doc)
    assert algebra.dim == 3
    assert algebra.bracket_entries(0, 1) == ((2, 1),)


def test_pair_document_round_trip_inline_and_all():
    text = (
        '{"algebra": {"name": "a2", "dim": 2, "basis": ["a", "b"], "brackets": {}},'
        ' "ideal": [["1", "0"]]}'
    )
    doc = parse(text)
    assert isinstance(doc, PairDocument)
    assert parse(serialize(doc)) == doc
    pair = pair_from_document(doc)
    assert (pair.left_dim, pair.right_dim) == (2, 1)
    full = parse('{"algebra": {"name": "a2", "dim": 2, "basis": ["a", "b"], "brackets": {}}, "ideal": "all"}')
    assert full.ideal is None
    assert parse(serialize(full)) == full
    assert pair_from_document(full).right_dim == 2


def test_scalars_accept_integers_and_fractions():
    text = '{"name": "s", "dim": 2, "basis": ["x", "y"], "brackets": {"x,y": {"x": 2, "y": "-1/3"}}}'
    doc = parse(text)
    assert doc.brackets[0][1] == (Fraction(2), Fraction(-1, 3))


def test_unordered_bracket_key_is_a_syntax_error_with_position():
    text = '{"name": "b",\n "dim": 2, "basis": ["x", "y"],\n "brackets": {"x,x": {"y": "1"}}}'
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert err.value.line == 3
    assert err.value.col is not None
    assert err.value.witness == "x,x"
    with pytest.raises(DocumentError):
        parse('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {"y,x": {"y": "1"}}}')


# A refused bracket key is located inside the brackets object, by its decoded
# text: the same text elsewhere in the document and escapes in the key itself
# do not move the position, which is the key's opening quote.
@pytest.mark.parametrize(
    "text,line,col,witness",
    [
        # the name holds the key's text, on an earlier line
        ('{"name": "x,x",\n "dim": 2,\n "basis": ["x", "y"],\n "brackets": {\n   "x,x": {"y": "1"}}}', 5, 4, "x,x"),
        # the key written with a JSON escape, and as it reads
        ('{"name": "a", "dim": 2, "basis": ["x", "y"],\n "brackets": {"x,y": {"y": "1"},\n  "\\u03b1,y": {}}}',
         3, 3, "α"),
        ('{"name": "a", "dim": 2, "basis": ["x", "y"],\n "brackets": {"x,y": {"y": "1"},\n  "α,y": {}}}', 3, 3, "α"),
        # an earlier key whose value spans two lines
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets":\n {"x,y": {"y": "1",\n  "x": "-1/2"}, "y,x": {}}}',
         3, 17, "y,x"),
        # an inline algebra of a pair document, whose name holds the key's text
        ('{"ideal": "all", "algebra": {"name": "y,x", "dim": 2, "basis": ["x", "y"],\n "brackets": {"y,x": {}}}}',
         2, 15, "y,x"),
    ],
    ids=["name-holds-key", "escaped-key", "non-ascii-key", "multi-line-earlier-value", "inline-algebra"],
)
def test_refused_bracket_key_is_located_in_the_brackets_object(text, line, col, witness):
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.witness) == (line, col, witness)
    assert str(err.value).startswith(f"line {line} col {col}: bracket key")


def test_json_syntax_error_carries_position():
    with pytest.raises(DocumentError) as err:
        parse('{"name": "b",\n "dim": }')
    assert err.value.line == 2
    assert err.value.col is not None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"name": "b", "dim": 2, "basis": ["x"], "brackets": {}}', "length"),
        ('{"name": "b", "dim": 2, "basis": ["x", "x"], "brackets": {}}', "unique"),
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {"x,w": {"y": "1"}}}', "unknown"),
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {"x,y": {"w": "1"}}}', "unknown"),
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {"x,y": {"y": "1/0"}}}', "rational"),
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {"x,y": {"y": 0.5}}}', "scalar"),
        ('{"name": "b", "dim": 2, "basis": ["x", "y"], "brackets": {}, "extra": 1}', "unknown key"),
        ('{"name": "b", "basis": ["x", "y"], "brackets": {}}', "missing"),
        ('{"algebra": 7, "ideal": "all"}', "algebra"),
        ('{"algebra": {"name": "a1", "dim": 1, "basis": ["x"], "brackets": {}}, "ideal": [["1", "0"]]}', "length"),
        ('[1, 2]', "object"),
    ],
)
def test_document_semantic_errors(text, fragment):
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_duplicate_keys_are_rejected():
    with pytest.raises(DocumentError) as err:
        parse('{"name": "b", "name": "c", "dim": 0, "basis": [], "brackets": {}}')
    assert "duplicate" in str(err.value)


def test_jacobi_violation_reported_with_witness():
    # [x,y]=z and [x,z]=x leave a Jacobi defect of z on (x, y, z)
    text = (
        '{"name": "bad", "dim": 3, "basis": ["x", "y", "z"],'
        ' "brackets": {"x,y": {"z": "1"}, "x,z": {"x": "1"}}}'
    )
    doc = parse(text)
    with pytest.raises(DocumentError) as err:
        algebra_from_document(doc)
    assert err.value.witness is not None
    assert "structure" in str(err.value)


def test_non_ideal_subspace_reported_with_witness():
    text = (
        '{"algebra": {"name": "h1", "dim": 3, "basis": ["x", "y", "z"],'
        ' "brackets": {"x,y": {"z": "1"}}}, "ideal": [["1", "0", "0"]]}'
    )
    with pytest.raises(DocumentError) as err:
        pair_from_document(parse(text))
    assert "ideal" in str(err.value)
    assert err.value.witness is not None


def test_pair_document_with_file_reference(tmp_path):
    algebra_text = serialize(parse(
        '{"name": "h1", "dim": 3, "basis": ["x", "y", "z"], "brackets": {"x,y": {"z": "1"}}}'
    ))
    (tmp_path / "h1.json").write_text(algebra_text)
    (tmp_path / "centre.json").write_text('{"algebra": "h1.json", "ideal": [["0", "0", "1"]]}')
    pair = load_path(str(tmp_path / "centre.json"))
    assert isinstance(pair, Pair)
    assert (pair.left_dim, pair.right_dim) == (3, 1)


def test_referenced_document_must_be_an_algebra(tmp_path):
    (tmp_path / "p.json").write_text(
        '{"algebra": {"name": "a1", "dim": 1, "basis": ["x"], "brackets": {}}, "ideal": "all"}'
    )
    (tmp_path / "outer.json").write_text('{"algebra": "p.json", "ideal": "all"}')
    with pytest.raises(DocumentError):
        load_path(str(tmp_path / "outer.json"))
    with pytest.raises(DocumentError):
        load_path(str(tmp_path / "missing.json"))


def test_report_matches_golden_file():
    sel = "builtin:pair_full(nonabelian2)"
    report = verify_pair(resolve_selector(sel), pair_id=sel)
    with open(os.path.join(DATA, "pair_full_nonabelian2.report"), encoding="utf-8") as fh:
        assert serialize_report(report) == fh.read()


def test_machine_report_shape():
    sel = "builtin:pair_center(heisenberg(1))"
    report = verify_pair(resolve_selector(sel), pair_id=sel)
    payload = json.loads(serialize_report(report, machine=True))
    assert payload["summary"]["checks"] == len(payload["records"]) == 12
    assert payload["summary"]["asserted-failures"] == 0
    descent = next(r for r in payload["records"] if r["check"] == "diagonal-descends-isomorphically")
    assert descent["flags"]["psi-injective"] is False
    assert descent["flags"]["clean-intersection"] is False
    assert descent["status"] == "pass"


def test_all_catalog_selectors_list_is_stable():
    assert catalog_selectors() == tuple(sorted(catalog_selectors(), key=catalog_selectors().index))
    assert len(set(catalog_selectors())) == 9


def test_nonabelian2_shape():
    alg = nonabelian2()
    assert alg.bracket_entries(0, 1) == ((1, 1),)
