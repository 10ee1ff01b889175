"""Keep Spark's reused Python workers from re-reading their zip archives
on every task.

Before each task, ``pyspark.worker_util.setup_spark_files`` calls
``importlib.invalidate_caches()``. That calls ``invalidate_caches()`` on
every finder in ``sys.path_importer_cache``, and on Python 3.11 a
``zipimport.zipimporter`` answers by eagerly re-reading the directory of
its whole archive. A worker holds one zip importer per archive and per
package inside it: ``pyspark.zip`` and its sub-packages, ``py4j`` and the
spark-core jar (15 MB, ~5k entries) that the workers' Python path carries.
The re-reads cost 0.16–0.25 s of every task before any user code runs.

``lean_worker`` drops those importers from the cache, so the next task's
``invalidate_caches()`` finds none to re-read. ``sys.path_importer_cache``
is only a cache: a later import that searches an archive builds a fresh
zipimporter, from the directory already held in
``zipimport._zip_directory_cache``, which costs no re-read. Spark reuses
each Python worker across tasks (``spark.python.worker.reuse``, on by
default), so a worker pays the re-read once, on its first task.
"""
from __future__ import annotations

import sys
import zipimport


def lean_worker() -> None:
    """Remove every zip importer from ``sys.path_importer_cache``.

    Call it first thing in a Spark task function. ``sys.path`` and every
    other finder are left as they are."""
    cache = sys.path_importer_cache
    for entry, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del cache[entry]
