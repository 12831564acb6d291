"""The one JSON writer: the bytes of json.dumps(obj, indent=2), for every output.

`catalog._json_text` renders every `--machine` output and every serialized
document.  It is compared with json.dumps on seeded random payloads, on the
edge cases of the format, and on what each command prints.
"""

import json
import random
from fractions import Fraction

import pytest

from tensoralg.catalog import _json_text, catalog_selectors, parse, serialize
from tensoralg.cli import main


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# Characters json escapes in its own ways: controls, quotes, backslashes, the
# line separators JavaScript reads as breaks, lone and paired surrogates, and
# characters outside the basic plane.
_CHARS = (
    "a", "Z", "0", " ", "/", '"', "\\", "\x00", "\x08", "\t", "\n", "\x0c", "\r", "\x1f", "\x7f", "\x80",
    "é", "ß", "α", "\u2028", "\u2029", "\ufeff", "\uffff", "\ud800", "\udbff", "\udc00", "\udfff",
    "\U0001f600", "\U0010ffff",
)
_INTS = (0, 1, -1, 7, -42, 2**31, -(2**31) - 1, 2**63, 2**64 + 1, -(2**100), 10**40)


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice(_INTS) if rng.random() < 0.5 else rng.randrange(-1000, 1000)
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(([], {}))
    if kind == 5:
        return [_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_text(rng): _payload(rng, depth + 1) for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("seed", range(10))
def test_random_payloads_render_as_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(300):
        obj = _payload(rng)
        assert _json_text(obj) == dumps(obj), obj


class _Int(int):
    def __repr__(self):
        return "not-an-int"


class _Str(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        True, False, None, 0, -0, 1, -1, 2**200, -(2**200), "", "\x00", '"\\/', "\ud800", "\U0001f600", "é\u2028",
        [], {}, [[]], [{}], {"": {}}, {"a": []}, [[[], {}], {"k": [{}]}], [True, 1, False, 0, None],
        {"b": 1, "a": 2, "é": 3}, _Int(5), [_Int(-3)], _Str("s"), {_Str("k"): _Str("v")},
    ],
    ids=repr,
)
def test_edge_cases_render_as_json_dumps(obj):
    assert _json_text(obj) == dumps(obj)


@pytest.mark.parametrize(
    "obj", [1.5, (1, 2), Fraction(1, 2), {1}, b"x", {1: "a"}, {None: 1}, {True: 1}, [object()], {"a": 1.0}],
    ids=repr,
)
def test_other_types_are_refused(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def _machine_outputs():
    """(command line) for every --machine output on the catalog selectors."""
    selectors = catalog_selectors()
    yield ["catalog", "--machine"]
    yield ["validate", "--machine", "builtin:heisenberg(1)"]
    for s in selectors:
        yield ["validate", "--machine", s]
        yield ["tensor", "--machine", s]
        yield ["verify", "--machine", s]
    for left in selectors:
        for right in selectors:
            yield ["kunneth", "--machine", left, right]


def test_every_machine_output_is_json_dumps_of_itself(capsys):
    seen = 0
    for argv in _machine_outputs():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out.isascii(), argv
        assert out == dumps(json.loads(out)), argv
        seen += 1
    assert seen == 2 + 3 * 9 + 81


# [α, β] = ζ: the Heisenberg algebra with Greek basis names.
_GREEK = {"name": "h-é", "dim": 3, "basis": ["α", "β", "ζ"], "brackets": {"α,β": {"ζ": "1"}}}


def test_non_ascii_basis_names_through_tensor_machine(tmp_path, capsys):
    path = tmp_path / "greek.json"
    path.write_text(json.dumps({"algebra": _GREEK, "ideal": "all"}, ensure_ascii=False), encoding="utf-8")
    assert main(["tensor", "--machine", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.isascii()
    assert out == dumps(json.loads(out))
    assert "\\u03b1(x)n1" in out
    assert "α(x)n1" in json.loads(out)["tensor"]["basis"]


@pytest.mark.parametrize("ideal", ["all", [["0", "0", "1"]]])
def test_non_ascii_basis_names_through_serialize(ideal):
    doc = parse(json.dumps({"algebra": _GREEK, "ideal": ideal}, ensure_ascii=False))
    text = serialize(doc)
    assert text.isascii()
    assert text == dumps(json.loads(text))
    assert parse(text) == doc
    algebra_text = serialize(doc.algebra)
    assert algebra_text == dumps(_GREEK)
