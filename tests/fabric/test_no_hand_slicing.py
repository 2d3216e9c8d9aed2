""""One declaration per far record" as a tier-1 invariant.

A far record's layout is declared once, as a ``wire.Layout``; its size,
field offsets and codec all derive from that declaration. This walk over
``src/repro`` (outside ``wire.py``, which defines the codec) keeps the
hand-written forms from coming back:

* ``decode_u64(raw[a:b])`` — a field decoded from a hand-computed slice;
* ``encode_u64(x) + ...`` or ``b"".join(encode_u64(x) for ...)`` — a record
  assembled word by word;
* ``<int literal> * WORD`` — a record size or field offset as a number
  (``index * WORD`` with a variable, array indexing, is fine).

``encode_u64`` / ``decode_u64`` on one whole word stay legal: they are the
single-word codec.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[2] / "src" / "repro"


def _calls(node: ast.AST, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    return name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _is_word(node: ast.AST) -> bool:
    return "WORD" in (getattr(node, "id", None), getattr(node, "attr", None))


def _is_int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def findings(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if _calls(node, "decode_u64") and node.args and isinstance(node.args[0], ast.Subscript):
            found.append((node.lineno, "decode_u64 of a subscript"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _calls(node.left, "encode_u64") or _calls(node.right, "encode_u64"):
                found.append((node.lineno, "concatenated encode_u64"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            pair = (node.left, node.right)
            if any(_is_word(a) and _is_int_literal(b) for a, b in (pair, pair[::-1])):
                found.append((node.lineno, "<int literal> * WORD"))
        elif _calls(node, "join") and node.args:
            argument = node.args[0]
            if isinstance(argument, (ast.GeneratorExp, ast.ListComp)) and any(
                _calls(inner, "encode_u64") for inner in ast.walk(argument.elt)
            ):
                found.append((node.lineno, "joined encode_u64"))
    return found


def test_no_hand_sliced_codec_outside_wire():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "wire.py"
        for line, what in findings(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "snippet, what",
    [
        ("key = decode_u64(raw[8:16])", "decode_u64 of a subscript"),
        ("n = wire.decode_u64(payload[off : off + WORD])", "decode_u64 of a subscript"),
        ("blob = encode_u64(a) + encode_u64(b)", "concatenated encode_u64"),
        ("blob = header + encode_u64(len(data)) + data", "concatenated encode_u64"),
        ("blob = b''.join(encode_u64(w) for w in words)", "joined encode_u64"),
        ("blob = b''.join([encode_u64(k) for k, _ in pairs])", "joined encode_u64"),
        ("client.write_u64(addr + 2 * WORD, value)", "<int literal> * WORD"),
        ("ITEM_BYTES = WORD * 4", "<int literal> * WORD"),
        ("size = 3 * wire.WORD", "<int literal> * WORD"),
    ],
)
def test_the_walk_bites(snippet, what):
    assert [found for _, found in findings(snippet)] == [what]


@pytest.mark.parametrize(
    "snippet",
    [
        "value = decode_u64(result.value)",
        "client.saai(tail, WORD, encode_u64(value))",
        "client.write(slots, encode_u64(EMPTY) * len(slots))",
        "parts.append(encode_u64(len(cells)))",
        "address = base + index * WORD",
        "raw = client.read(base, 2 * count * WORD)",
        "key, value, nxt = NODE.unpack(raw)",
    ],
)
def test_the_single_word_codec_and_array_indexing_stay_legal(snippet):
    assert findings(snippet) == []
