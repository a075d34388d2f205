"""Suite coverage of abstract deviations (AnICA's ``bbset_coverage``).

A family is only as interesting as the fraction of *real-world-like*
blocks it explains: a deviation family matching 20% of a BHive-style
suite points at a systematic modeling difference, one matching a single
exotic block is a curiosity.  This module scores each family against a
corpus — by default the repo's deterministic benchmark suite
(:func:`repro.bhive.suite.default_suite`), or any hex-per-line /
BHive-CSV file via ``facile hunt --coverage CORPUS``.

Corpus blocks that cannot be decoded by the subset ISA (foreign
corpora) or that use extensions the campaign µarch lacks are counted in
the denominator but can never match — coverage is "fraction of the
corpus as given", not "fraction of the blocks we happen to model".
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bhive.suite import default_suite
from repro.corpus import load_corpus
from repro.discovery.abstraction import AbstractBlock, block_features
from repro.isa.block import BasicBlock
from repro.uops.database import UopsDatabase


def load_coverage_corpus(path: Optional[str] = None,
                         ) -> Tuple[str, List[Optional[BasicBlock]]]:
    """(label, blocks) of the coverage corpus.

    Without a *path* the default benchmark suite is used (deterministic:
    fixed size and seed).  With one, each line's hex field is decoded;
    undecodable blocks stay in the list as ``None`` so the coverage
    denominator reflects the corpus as given.
    """
    if path is None:
        suite = default_suite()
        return (f"default-suite-{len(suite)}",
                [bench.block(loop=False) for bench in suite])
    blocks: List[Optional[BasicBlock]] = []
    for hexstr in load_corpus(path):
        try:
            blocks.append(BasicBlock.from_bytes(bytes.fromhex(hexstr)))
        except Exception:
            blocks.append(None)
    # The label is provenance inside a byte-reproducible report: use the
    # basename so the same corpus yields the same report everywhere.
    return os.path.basename(path) or path, blocks


def corpus_feature_index(blocks: Sequence[Optional[BasicBlock]],
                         db: UopsDatabase) -> List[Optional[List[Dict]]]:
    """Per-block concrete feature vectors, computed once per corpus.

    Blocks that failed to decode — or use extensions this µarch lacks —
    map to ``None`` (they can never match a family on it).
    """
    index: List[Optional[List[Dict]]] = []
    for block in blocks:
        if block is None:
            index.append(None)
            continue
        try:
            body = block.without_final_branch()
            index.append(block_features(body.instructions, db))
        except Exception:
            index.append(None)
    return index


def family_coverage(abstraction: AbstractBlock,
                    feature_index: Sequence[Optional[List[Dict]]],
                    ) -> Tuple[int, int]:
    """``(matched, total)`` of one family over a prepared corpus."""
    matched = sum(
        1 for features in feature_index
        if features is not None and abstraction.matches_features(features))
    return matched, len(feature_index)
