"""``lean_worker`` drops the zip importers from ``sys.path_importer_cache``
so that ``importlib.invalidate_caches()`` (which pyspark's worker calls
before every task) no longer re-reads the archives, while imports from
those archives keep working."""
import importlib
import sys
import zipfile
import zipimport

from repro.mapreduce.worker import lean_worker


def _zip_importers() -> list[str]:
    return [
        e for e, f in sys.path_importer_cache.items()
        if isinstance(f, zipimport.zipimporter)
    ]


def test_drops_zip_importers_and_keeps_zip_imports(tmp_path, monkeypatch):
    archive = str(tmp_path / "mods.zip")
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("lean_worker_zip_a.py", "VALUE = 'a'\n")
        zf.writestr("lean_worker_zip_b.py", "VALUE = 'b'\n")
    monkeypatch.syspath_prepend(archive)
    for name in ("lean_worker_zip_a", "lean_worker_zip_b"):
        monkeypatch.delitem(sys.modules, name, raising=False)

    assert importlib.import_module("lean_worker_zip_a").VALUE == "a"
    assert archive in _zip_importers()
    directory = zipimport._zip_directory_cache[archive]

    lean_worker()
    assert _zip_importers() == []

    importlib.invalidate_caches()
    b = importlib.import_module("lean_worker_zip_b")
    assert b.VALUE == "b"
    assert b.__file__.startswith(archive)
    # The archive's directory was not read again: the rebuilt importer
    # reuses the one read for the first import.
    assert zipimport._zip_directory_cache[archive] is directory


def test_leaves_sys_path_and_other_finders():
    path = list(sys.path)
    others = {
        e: f for e, f in sys.path_importer_cache.items()
        if not isinstance(f, zipimport.zipimporter)
    }
    lean_worker()
    assert sys.path == path
    assert sys.path_importer_cache == others


def _lean_then_import(_):
    import importlib
    import sys

    import pyspark

    from repro.mapreduce.worker import lean_worker

    lean_worker()
    importlib.invalidate_caches()
    name = next(
        m for m in (
            "pyspark.mllib.stat.distribution",
            "pyspark.ml.stat",
            "pyspark.streaming.util",
            "pyspark.testing.utils",
        )
        if m not in sys.modules
    )
    mod = importlib.import_module(name)
    return name, mod.__file__, pyspark.__file__


def test_spark_task_imports_after_invalidate(spark):
    sc = spark.sparkContext
    out = sc.parallelize(range(4), 4).map(_lean_then_import).collect()
    for name, mod_file, pyspark_file in out:
        package_dir = pyspark_file.rsplit("/", 1)[0]
        assert mod_file.startswith(package_dir), (name, mod_file)
