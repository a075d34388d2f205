"""Block corpus files: one block's hex per line, or a BHive-style CSV.

Read by ``facile serve --warm`` and by the campaigns' coverage corpus
(:mod:`repro.discovery.coverage`).  It imports nothing of the program,
so warming a server does not load the discovery package.
"""

from __future__ import annotations

from typing import List


def load_corpus(path: str) -> List[str]:
    """Block hex strings from a corpus file.

    One block per line; blank lines and ``#`` comments are skipped, and
    only the first comma-separated field is read — so both plain hex
    lists and BHive-style ``<hex>,<throughput>`` CSVs work unchanged.
    """
    hexes: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            field = line.split(",", 1)[0].strip()
            if field:
                hexes.append(field)
    return hexes
