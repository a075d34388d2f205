"""Columnar cores on several threads share the form trie safely.

With ``facile serve --no-shard`` (one dispatcher thread per µarch) and
after a shard falls back in-process, columnar cores run on several
threads of one process and meet never-seen instruction forms at the
same time.  Form insertion into the process-wide trie is serialized by
one module lock (the walk over known forms takes none).  Without it, a
form two threads insert at once can end up *poisoned* — correct, but
never shared again — and two nested forms can both become leaves.

The stress test replays one stream of sampled blocks through four µarch
cores, once sequentially and once on four threads with a tiny switch
interval, and demands the same tables and the same predictions.
"""

import random
import sys
import threading

import pytest

from repro.core.components import ThroughputMode
from repro.discovery.abstraction import (
    AbstractBlock,
    AbstractInsn,
    FEATURE_ORDER,
    sample_block,
)
from repro.engine import columnar
from repro.engine.columnar import ColumnarCore
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

UARCHS = ("SKL", "ICL", "HSW", "RKL")
N_BLOCKS = 400
#: Wall-clock bound on the concurrent run (it takes a few seconds).
TIMEOUT_S = 120.0


def sampled_raws(n_blocks, seed=2024):
    """Blocks drawn from the whole template table (many fresh forms)."""
    db = UopsDatabase(uarch_by_name("SKL"))
    rng = random.Random(seed)
    raws = []
    while len(raws) < n_blocks:
        insns = []
        for _ in range(rng.randint(1, 6)):
            insn = AbstractInsn()
            for name in FEATURE_ORDER:
                insn.widen(name)
            insns.append(insn)
        block = sample_block(AbstractBlock(insns), rng, db)
        if block is not None:
            raws.append(block.raw)
    return raws


def tables():
    """The form index and raw-leaf set, by value (leaves are objects)."""
    forms = {form: (None if leaf is columnar._POISONED
                    else (leaf.form_len, leaf.disp_len, leaf.imm_len))
             for form, leaf in columnar._FORM_INDEX.items()}
    return forms, sorted(columnar._RAW_LEAVES)


def outcome(core, raw):
    try:
        return core.predict_raw(raw, ThroughputMode.LOOP)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return f"{type(exc).__name__}: {exc}"


def replay(raws, threaded):
    """Fresh tables, then every core over *raws*; (tables, outcomes)."""
    columnar._reset_global_tables()
    cores = {abbrev: ColumnarCore(uarch_by_name(abbrev))
             for abbrev in UARCHS}
    outcomes = {}
    start = threading.Barrier(len(UARCHS) if threaded else 1)

    def work(abbrev):
        start.wait()
        outcomes[abbrev] = [outcome(cores[abbrev], raw) for raw in raws]

    if not threaded:
        for abbrev in UARCHS:
            work(abbrev)
        return tables(), outcomes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(abbrev,))
                   for abbrev in UARCHS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    return tables(), outcomes


@pytest.fixture()
def cold_trie():
    yield
    columnar._reset_global_tables()


def test_concurrent_cores_leave_the_sequential_tables(cold_trie):
    raws = sampled_raws(N_BLOCKS)
    sequential_tables, sequential = replay(raws, threaded=False)
    concurrent_tables, concurrent = replay(raws, threaded=True)
    forms, raw_leaves = concurrent_tables
    poisoned = {form for form, leaf in forms.items() if leaf is None}
    expected_poisoned = {form for form, leaf
                         in sequential_tables[0].items() if leaf is None}
    assert poisoned == expected_poisoned
    assert concurrent_tables == sequential_tables
    assert raw_leaves == sequential_tables[1]
    for abbrev in UARCHS:
        assert concurrent[abbrev] == sequential[abbrev], abbrev
