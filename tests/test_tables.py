"""Who owns a ring's tables, how they are normalized in place, and the
row-block lexer of ring files.

Every table handed to ``FiniteRing._canonical`` is normalized in place;
``FiniteRing.relabeled`` is the general permutation the tests compare it
with.  The lexer fills the tables of a ring file a block of rows at a time;
it is run here with blocks of a few rows too, as ``TestRowBlocks`` runs the
analysis kernels, since every catalog ring fits in one block.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from ringlab import FiniteRing, RingValidationError, core, zmod
from ringlab.cli import main
from ringlab.construct import CATALOG_SOURCES, build_from_provenance
from ringlab.core import load_ring_file, load_ring_json

BLOCK_CELLS = [1, 50]


def canonical_order(ring: FiniteRing) -> list[int]:
    """[zero, one, every other index in order]: the relabeling normalization makes."""
    head = [ring.zero, ring.one] if ring.order > 1 else [ring.zero]
    return head + [i for i in range(ring.order) if i not in head]


def same_ring(a: FiniteRing, b: FiniteRing) -> bool:
    return (a.label, a.table_bytes(), a.elem_names, a.zero, a.one) == \
        (b.label, b.table_bytes(), b.elem_names, b.zero, b.one)


@pytest.fixture
def handed_over(monkeypatch) -> list[tuple]:
    """(a ring on copies of the tables as handed to ``_canonical``, the ring
    it returned, the tables handed) for each call while the test runs."""
    seen: list[tuple] = []
    canonical = FiniteRing._canonical

    def recording(label, add, mul, zero, one, elem_names):
        names = tuple(elem_names) if elem_names is not None else None
        before = FiniteRing(label, len(add), add.copy(), mul.copy(), zero, one, names)
        ring = canonical(label, add, mul, zero, one, elem_names)
        seen.append((before, ring, add, mul))
        return ring

    monkeypatch.setattr(FiniteRing, "_canonical", staticmethod(recording))
    return seen


class TestInPlaceNormalization:
    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_every_catalog_source_matches_relabeled(self, handed_over, monkeypatch, cells):
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        moved = 0
        for source in CATALOG_SOURCES:
            build_from_provenance(source)
        for before, ring, _, _ in handed_over:
            moved += (before.zero, before.one) != (0, 1 % before.order)
            assert same_ring(ring, before.relabeled(canonical_order(before))), ring.label
        # the matrix families and the products put one elsewhere
        assert moved >= 10

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_seeded_relabelings_through_from_tables(self, catalog_rings, monkeypatch, cells):
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        rng = np.random.default_rng(29)
        for ring in catalog_rings:
            shuffled = ring.relabeled(rng.permutation(ring.order))
            loaded = FiniteRing.from_tables(ring.label, shuffled.add_table, shuffled.mul_table,
                                            shuffled.zero, shuffled.one, shuffled.elem_names)
            assert same_ring(loaded, shuffled.relabeled(canonical_order(shuffled))), ring.label

    @pytest.mark.parametrize("zero, one", [(0, 1), (1, 0), (0, 5), (5, 0), (3, 4), (4, 3),
                                           (6, 2), (2, 6), (7, 6), (6, 7), (0, 7), (7, 0)])
    def test_zero_and_one_anywhere(self, zero, one):
        # Z/8 with its zero and one moved to the given indices, every other
        # element in order
        rest = [i for i in range(2, 8)]
        old_of_new = np.empty(8, dtype=np.intp)
        old_of_new[[zero, one]] = 0, 1
        old_of_new[[i for i in range(8) if i not in (zero, one)]] = rest
        moved = zmod(8).relabeled(old_of_new)
        assert (moved.zero, moved.one) == (zero, one)
        loaded = FiniteRing.from_tables("Z/8", moved.add_table, moved.mul_table, zero, one,
                                        moved.elem_names)
        assert same_ring(loaded, zmod(8))

    def test_tables_are_handed_over_not_copied(self, handed_over):
        ring = build_from_provenance("tri:zmod2:2")
        before, built, add, mul = handed_over[-1]
        assert built is ring and (before.zero, before.one) != (0, 1)
        assert ring.add_table is add and ring.mul_table is mul
        assert not add.flags.writeable and not mul.flags.writeable


class TestFromTablesCopies:
    @pytest.mark.parametrize("make", [
        lambda t: np.array(t, dtype=np.int32),
        lambda t: np.asarray(t, dtype=np.int64),
        lambda t: np.concatenate([t, t]).astype(np.int32)[:len(t)],
        lambda t: np.asfortranarray(t, dtype=np.int32),
    ], ids=["int32", "int64", "int32-view", "fortran"])
    @pytest.mark.parametrize("zero, one", [(0, 1), (2, 0)])
    def test_callers_arrays_stay_unchanged_and_writable(self, make, zero, one):
        moved = zmod(3).relabeled([1, 2, 0] if (zero, one) == (2, 0) else [0, 1, 2])
        assert (moved.zero, moved.one) == (zero, one)
        add, mul = make(moved.add_table), make(moved.mul_table)
        kept = add.copy(), mul.copy()
        ring = FiniteRing.from_tables("t", add, mul, zero, one)
        assert ring.table_bytes() == zmod(3).table_bytes()
        for passed, was in zip((add, mul), kept):
            assert passed.flags.writeable
            np.testing.assert_array_equal(passed, was)
        for table, passed in ((ring.add_table, add), (ring.mul_table, mul)):
            assert not np.shares_memory(table, passed)
        add[0, 0] = 2  # the ring's tables do not move with the caller's
        assert ring.table_bytes() == zmod(3).table_bytes()

    def test_lists_are_converted_once(self):
        add, mul = (zmod(3).add_table.tolist(), zmod(3).mul_table.tolist())
        assert FiniteRing.from_tables("t", add, mul, 0, 1).table_bytes() == zmod(3).table_bytes()


class TestElemNames:
    @pytest.mark.parametrize("names, message", [
        (["a"], "elem_names has 1 names for a ring of order 2"),
        (["a", "b", "c"], "elem_names has 3 names for a ring of order 2"),
        ([0, 1], "elem_names holds 0, not a str"),
        (["a", None], "elem_names holds None, not a str"),
    ])
    def test_bad_names_rejected(self, names, message):
        z2 = zmod(2)
        with pytest.raises(RingValidationError, match=message):
            FiniteRing.from_tables("t", z2.add_table, z2.mul_table, 0, 1, names)

    def test_names_follow_their_elements(self):
        # Z/2 with one at index 0 and zero at index 1
        ring = FiniteRing.from_tables("t", [[1, 0], [0, 1]], [[0, 1], [1, 1]], 1, 0,
                                      ["one", "zero"])
        assert ring.elem_names == ("zero", "one") and ring.name_of(1) == "one"


class TestRelabeled:
    @pytest.mark.parametrize("order, message", [
        ([0, 0, 1], "must list each index 0..2 once, got \\[0, 0, 1\\]"),
        ([0, 1, 3], "must list each index 0..2 once"),
        ([0, 1, -1], "must list each index 0..2 once"),
        ([0, 1], "needs 3 indices, got an array of shape \\(2,\\)"),
        ([0, 1, 2, 3], "needs 3 indices, got an array of shape \\(4,\\)"),
        ([[0, 1, 2]], "needs 3 indices, got an array of shape \\(1, 3\\)"),
    ])
    def test_non_permutation_rejected(self, order, message):
        with pytest.raises(ValueError, match=message):
            zmod(3).relabeled(order)

    def test_permutation_accepted(self):
        ring = zmod(3).relabeled([2, 0, 1])
        assert (ring.zero, ring.one) == (1, 2) and ring.elem_names == ("2", "0", "1")


# ---------------------------------------------------------------------------
# the row-block lexer


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    """The catalog as ``ringlab catalog dump`` writes it: (provenance, path)."""
    out = tmp_path_factory.mktemp("dump")
    assert main(["catalog", "dump", "--dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return [(entry["provenance"], out / entry["file"]) for entry in manifest]


class TestRowBlockLexer:
    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_every_catalog_dump_file(self, catalog, dumped, monkeypatch, cells):
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        rings = {entry.provenance: entry.ring for entry in catalog}
        assert len(dumped) == len(rings)
        for provenance, path in dumped:
            fields = core._ring_fields(path.read_bytes())
            assert all(isinstance(t, np.ndarray) for t in fields[1:3]), provenance
            loaded, ring = load_ring_file(path), rings[provenance]
            assert (loaded.label, loaded.table_bytes()) == (ring.label, ring.table_bytes())

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_corpus_matches_one_block(self, monkeypatch, cells):
        from test_core import _load_outcome, loader_corpus
        corpus = loader_corpus()[::3]
        expected = [_load_outcome(load_ring_json, text) for text in corpus]
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        assert [_load_outcome(load_ring_json, text) for text in corpus] == expected

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_runs_of_many_row_ends_give_up(self, monkeypatch, cells):
        # more "]" than a table of that many bytes holds: None, found early
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        run = np.frombuffer(b"[[" + b"0]," * 1000 + b"0]]", dtype=np.uint8)
        assert core._row_ends(run) is None and core._int_matrix(run) is None


# Digests of the outcome of loading each one-byte replacement of a dump, as
# "<exception type>: <message>" or "accepted <sha256 of the tables>", one line
# each, position by position and in the order of REPLACEMENTS.  They were
# computed with the lexer that read the whole run at once, before tables
# were filled a row block at a time, and before ring files were read as bytes.
REPLACEMENTS = '09,[]"-.e '
ZMOD6_DIGEST = "e754d844fefa8e1bd01aa0670cc657890fc5ac9bc23191345d08e820f194f17a"
# the file form: Z/3 written with indent=1 and "\r\n" line ends, then files
# that are not UTF-8, open with a byte-order mark, or hold "\r" in a string
FILE_DIGEST = "ff078f5f0467fecb97da22daa8e070b83fa033adadd484fdb9a853b902b8a464"


def _outcome(load, source, label: bool = False) -> str:
    try:
        ring = load(source)
    except Exception as exc:  # the type and message are what is compared
        return f"{type(exc).__name__}: {exc}"
    head = ["accepted", ring.label] if label else ["accepted"]
    return " ".join(head + [hashlib.sha256(ring.table_bytes()).hexdigest()])


def _replacements(text):
    chars = REPLACEMENTS if isinstance(text, str) else [c.encode() for c in REPLACEMENTS]
    return [text[:i] + c + text[i + 1:] for i in range(len(text)) for c in chars]


def _digest(outcomes) -> str:
    return hashlib.sha256("".join(o + "\n" for o in outcomes).encode()).hexdigest()


class TestCorruptionGolden:
    @pytest.mark.parametrize("cells", [None, *BLOCK_CELLS])
    def test_one_byte_replacements_of_a_zmod6_dump(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        texts = _replacements(zmod(6).to_json())
        assert _digest(_outcome(load_ring_json, t) for t in texts) == ZMOD6_DIGEST

    def test_files_load_as_their_text(self, tmp_path):
        path = tmp_path / "ring.json"
        for text in _replacements(zmod(6).to_json())[::7]:
            path.write_text(text, encoding="utf-8")
            assert _outcome(load_ring_file, path) == _outcome(load_ring_json, text), text

    def test_one_byte_replacements_of_a_crlf_file(self, tmp_path):
        dump = json.dumps(zmod(3).to_json_dict(), indent=1).replace("\n", "\r\n").encode()
        special = [dump, dump.replace(b"\r\n", b"\r"), b"\xef\xbb\xbf" + dump,
                   dump.replace(b'"Z/3"', '"Z/3 ∈"'.encode()),
                   dump.replace(b'"Z/3"', b'"Z/3 \xff"'),
                   dump.replace(b'"Z/3"', b'"Z/3 \xed\xa0\x80"'),
                   dump.replace(b'"Z/3"', b'"Z/3\r\n"'),
                   dump.replace(b'"Z/3"', '"∈\r"'.encode()) + b"\xff",
                   zmod(5).to_json().encode().replace(b"]]", b"]\r]", 1)]
        path = tmp_path / "ring.json"
        outcomes = []
        for data in _replacements(dump) + special:
            path.write_bytes(data)
            outcomes.append(_outcome(load_ring_file, path, label=True))
        assert _digest(outcomes) == FILE_DIGEST
