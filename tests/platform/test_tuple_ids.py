"""Tuple ids handed out in pre-mixed blocks are the per-id sequence.

The acker's XOR trees, replays and fingerprints all see tuple ids, so
mixing them a block at a time must not change a single value or its
order: id ``n`` of a source is ``derive_seed(seed, n)``.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import repro
from repro.cluster.worker import _tuple_id_factory
from repro.common.rng import derive_seed
from repro.platform.tuples import ID_BLOCK, tuple_id_source

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_source_spans_block_boundaries():
    source = tuple_id_source(0x7CB1E5)
    count = 2 * ID_BLOCK + 3
    assert [source() for _ in range(count)] == [
        derive_seed(0x7CB1E5, n) for n in range(1, count + 1)
    ]


def test_process_wide_source_starts_at_one():
    # A fresh interpreter: the module source is process-global state.
    body = f"""
        from repro.common.rng import derive_seed
        from repro.platform.tuples import ID_BLOCK, next_tuple_id
        count = ID_BLOCK + 5
        ids = [next_tuple_id() for _ in range(count)]
        print(ids == [derive_seed(0x7CB1E5, n) for n in range(1, count + 1)])
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_worker_ids_are_salted_per_worker():
    for worker_id in (0, 1, 5):
        salt = 0xC1A57E50 ^ (worker_id + 1)
        source = _tuple_id_factory(worker_id)
        count = ID_BLOCK + 2
        assert [source() for _ in range(count)] == [
            derive_seed(salt, n) for n in range(1, count + 1)
        ]


def test_threads_never_share_an_id():
    source = tuple_id_source(9)
    per_thread: list[list[int]] = [[] for _ in range(4)]

    def draw(out):
        for _ in range(3 * ID_BLOCK):
            out.append(source())

    threads = [threading.Thread(target=draw, args=(out,)) for out in per_thread]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ids = [tuple_id for out in per_thread for tuple_id in out]
    assert len(set(ids)) == len(ids)
