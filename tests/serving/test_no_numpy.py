"""Serving never imports numpy.

numpy is a test extra (only ``analysis/fitting.py`` uses it, lazily), so
every process on the serving path — the CLI, the daemon, a sharded
database saved and reopened — must run without loading it.  A fresh
interpreter is the only honest place to check: the test process itself
has numpy loaded by its plugins and by other tests.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

SCRIPT = textwrap.dedent("""
    import sys

    import repro
    import repro.__main__
    import repro.serving.daemon
    from repro import ShardedSegmentDatabase, vs_intersects
    from repro.workloads import grid_segments, segment_queries

    segments = grid_segments(400, seed=5)
    queries = segment_queries(segments, 24, selectivity=0.05, seed=6)
    built = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                             engine="solution2")
    built.save("db")
    with ShardedSegmentDatabase.open("db", workers=0) as served:
        answers = served.query_batch(queries)
    for query, hits in zip(queries, answers):
        expected = sorted(s.label for s in segments if vs_intersects(s, query))
        assert sorted(s.label for s in hits) == expected, query
    assert any(answers), "the batch found nothing: a vacuous check"
    print("numpy" in sys.modules)
""")


def test_serving_path_never_imports_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False", "numpy was imported"
