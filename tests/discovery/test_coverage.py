"""Suite-coverage metric tests."""

import pytest

from repro.discovery.abstraction import AbstractBlock
from repro.discovery.coverage import (
    corpus_feature_index,
    family_coverage,
    load_corpus,
    load_coverage_corpus,
)
from repro.isa.assembler import assemble
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase


@pytest.fixture(scope="module")
def db():
    return UopsDatabase(uarch_by_name("SKL"))


def _abstract(asm, db):
    return AbstractBlock.from_instructions(assemble(asm), db)


class TestLoadCorpus:
    def test_hex_lines_comments_and_csv(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "# warm-up corpus\n"
            "4801d8\n"
            "\n"
            "4889d8,1.25\n"
            "  90  \n")
        assert load_corpus(str(corpus)) == ["4801d8", "4889d8", "90"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope.txt"))


class TestLoadCoverageCorpus:
    def test_default_is_the_benchmark_suite(self):
        label, blocks = load_coverage_corpus(None)
        assert label == f"default-suite-{len(blocks)}"
        assert blocks and all(b is not None for b in blocks)

    def test_file_corpus_keeps_undecodable_blocks_in_denominator(
            self, tmp_path):
        good = BasicBlock.from_asm("add rax, rbx").raw.hex()
        path = tmp_path / "corpus.txt"
        path.write_text(f"{good}\nzz-not-hex\n{good}\n")
        label, blocks = load_coverage_corpus(str(path))
        assert label == "corpus.txt"
        assert len(blocks) == 3
        assert blocks[1] is None  # undecodable, still counted

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_coverage_corpus(str(tmp_path / "nope.txt"))


class TestFamilyCoverage:
    def test_counts_matching_blocks(self, db):
        corpus = [
            BasicBlock.from_asm("add rax, rbx"),
            BasicBlock.from_asm("imul rcx, rdx\nadd rax, rbx"),
            BasicBlock.from_asm("mov rax, rbx"),
            None,  # undecodable placeholder
        ]
        index = corpus_feature_index(corpus, db)
        assert index[3] is None
        family = _abstract("add rax, rbx", db)
        matched, total = family_coverage(family, index)
        assert (matched, total) == (2, 4)

    def test_widened_family_covers_more(self, db):
        corpus = [
            BasicBlock.from_asm("add rax, rbx"),
            BasicBlock.from_asm("imul rcx, rdx"),
        ]
        index = corpus_feature_index(corpus, db)
        narrow = _abstract("add rax, rbx", db)
        widened = narrow.clone()
        for name in ("mnemonic", "archetype", "ports"):
            widened.insns[0].widen(name)
        assert family_coverage(narrow, index)[0] <= \
            family_coverage(widened, index)[0]
        assert family_coverage(widened, index) == (2, 2)

    def test_loop_corpora_match_without_the_back_edge(self, db):
        # corpus_feature_index strips final branches, so families (which
        # abstract loop *bodies*) still match loop-shaped corpus blocks.
        looped = BasicBlock.from_asm("add rax, rbx\njne -7")
        index = corpus_feature_index([looped], db)
        family = _abstract("add rax, rbx", db)
        assert family_coverage(family, index) == (1, 1)
