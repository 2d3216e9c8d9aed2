"""Unit tests for word encoding helpers and the far record layouts.

``encode_u64`` / ``decode_u64`` are the reference codec: every
:class:`Layout` property below is stated against them. The declaration
tests at the bottom hold DESIGN.md section 5's "Far record formats" table,
and the dataclasses that mirror a record, to the ``Layout`` declarations.
"""

import ast
import dataclasses
import importlib
import pkgutil
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core import ht_tree
from repro.fabric.wire import (
    U64_MASK,
    WORD,
    Layout,
    align_down,
    align_up,
    decode_u64,
    encode_u64,
    pack_words,
    to_signed,
    unpack_words,
    wrap_add,
)

u64s = st.integers(min_value=0, max_value=U64_MASK)
any_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)  # wraps both ways


class TestEncoding:
    def test_roundtrip_simple(self):
        assert decode_u64(encode_u64(42)) == 42

    def test_encode_is_little_endian(self):
        assert encode_u64(1) == b"\x01" + b"\x00" * 7

    def test_encode_wraps_negative(self):
        assert decode_u64(encode_u64(-1)) == U64_MASK

    def test_encode_wraps_overflow(self):
        assert decode_u64(encode_u64(U64_MASK + 5)) == 4

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode_u64(b"\x00" * 7)

    @given(u64s)
    def test_roundtrip_property(self, value):
        assert decode_u64(encode_u64(value)) == value


class TestSigned:
    def test_positive_unchanged(self):
        assert to_signed(7) == 7

    def test_max_negative(self):
        assert to_signed(U64_MASK) == -1

    def test_min_signed(self):
        assert to_signed(1 << 63) == -(1 << 63)

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_signed_roundtrip(self, value):
        assert to_signed(value & U64_MASK) == value


class TestWrapAdd:
    def test_plain(self):
        assert wrap_add(2, 3) == 5

    def test_wraps(self):
        assert wrap_add(U64_MASK, 1) == 0

    def test_negative_delta(self):
        assert wrap_add(5, -7) == U64_MASK - 1

    @given(u64s, u64s)
    def test_always_in_range(self, a, b):
        assert 0 <= wrap_add(a, b) <= U64_MASK


class TestAlignment:
    def test_align_up(self):
        assert align_up(1, 8) == 8
        assert align_up(8, 8) == 8
        assert align_up(0, 8) == 0

    def test_align_down(self):
        assert align_down(15, 8) == 8
        assert align_down(8, 8) == 8

    def test_align_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            align_up(4, 0)
        with pytest.raises(ValueError):
            align_down(4, -1)

    @given(st.integers(min_value=0, max_value=1 << 40), st.sampled_from([1, 2, 4, 8, 64, 4096]))
    def test_align_up_properties(self, value, alignment):
        up = align_up(value, alignment)
        assert up >= value
        assert up % alignment == 0
        assert up - value < alignment


class TestLayout:
    RECORD = Layout("version key value next")

    @given(st.lists(any_ints, min_size=1, max_size=6))
    def test_pack_is_the_concatenation_of_encode_u64(self, values):
        layout = Layout(" ".join(f"f{i}" for i in range(len(values))))
        packed = layout.pack(*values)
        assert packed == b"".join([encode_u64(value) for value in values])
        assert len(packed) == layout.size == len(values) * WORD
        assert layout.unpack(packed) == tuple(value & U64_MASK for value in values)

    def test_unpack_demands_exactly_size_bytes(self):
        raw = self.RECORD.pack(1, 2, 3, 4)
        for wrong in (raw[:-1], raw + b"\x00"):
            with pytest.raises(struct.error):
                self.RECORD.unpack(wrong)
        # Callers must not wait for decode_u64's ValueError: a far read of
        # ``size`` bytes returns exactly that many, so this is an internal
        # invariant and nothing in src/ catches it.
        assert not issubclass(struct.error, ValueError)

    def test_pack_rejects_a_wrong_field_count(self):
        with pytest.raises(struct.error):
            self.RECORD.pack(1, 2, 3)

    def test_offsets_are_word_indexes_in_declaration_order(self):
        assert self.RECORD.fields == ("version", "key", "value", "next")
        assert self.RECORD.offset == {
            name: index * WORD for index, name in enumerate(self.RECORD.fields)
        }

    @given(st.lists(st.tuples(u64s, u64s, u64s, u64s), max_size=5), st.binary(max_size=16))
    def test_iter_unpack_is_unpack_from_at_each_record(self, records, prefix):
        blob = b"".join(self.RECORD.pack(*record) for record in records)
        assert list(self.RECORD.iter_unpack(blob)) == records
        buffer = prefix + blob
        assert records == [
            self.RECORD.unpack_from(buffer, len(prefix) + index * self.RECORD.size)
            for index in range(len(records))
        ]

    @given(u64s, st.integers(min_value=0, max_value=3))
    def test_pack_into_writes_one_record_in_place(self, value, index):
        cell = Layout("word")
        buffer = bytearray(4 * WORD)
        cell.pack_into(buffer, index * WORD, value)
        assert decode_u64(bytes(buffer[index * WORD : (index + 1) * WORD])) == value
        assert buffer.count(0) >= 3 * WORD

    @given(st.lists(any_ints, max_size=8))
    def test_word_arrays_round_trip(self, values):
        packed = pack_words(values)
        assert packed == b"".join([encode_u64(value) for value in values])
        assert unpack_words(packed) == tuple(value & U64_MASK for value in values)

    def test_unpack_words_rejects_a_partial_word(self):
        with pytest.raises(struct.error):
            unpack_words(b"\x00" * (WORD + 1))


def _declarations():
    """``{(module, name): (layout, readers)}`` for every module-level
    ``NAME = Layout(...)`` under ``src/repro``; ``readers`` are the other
    modules that import the same object."""
    modules = {
        info.name: importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    }
    declared = {}
    for name, module in modules.items():
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "Layout"
            ):
                target = node.targets[0].id
                declared[name, target] = (getattr(module, target), [])
    for name, module in modules.items():
        for (owner, _), (layout, readers) in declared.items():
            if name != owner and any(value is layout for value in vars(module).values()):
                readers.append(name)
    return declared


class TestDeclarations:
    def test_design_table_matches_the_declarations(self):
        """DESIGN.md section 5 "Far record formats", row for row."""

        def short(module):
            return module.removeprefix("repro.")

        expected = [
            f"| `{name}` | `{short(module)}` | `{' '.join(layout.fields)}` | {layout.size} "
            f"| {', '.join(f'`{short(reader)}`' for reader in sorted(readers)) or '—'} |"
            for (module, name), (layout, readers) in sorted(_declarations().items())
        ]
        design = (Path(__file__).parents[2] / "DESIGN.md").read_text(encoding="utf-8")
        table = design.split("**Far record formats.**", 1)[1].split("\n\n", 2)[1]
        assert table.splitlines()[2:] == expected

    @pytest.mark.parametrize(
        "layout, mirror", [(ht_tree.ITEM, ht_tree._Item), (ht_tree.LEAF, ht_tree._Leaf)]
    )
    def test_dataclasses_that_mirror_a_record_keep_its_field_order(self, layout, mirror):
        assert layout.fields == tuple(field.name for field in dataclasses.fields(mirror))
