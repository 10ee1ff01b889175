"""SparkSession construction for the ``jobs/`` entrypoints.

Tests must use the session-scoped ``spark`` fixture from ``conftest.py``;
the standalone jobs (run via ``python jobs/<name>.py`` or ``spark-submit``)
build an equivalent local session here: local[*] master, broadcast joins
disabled — matching the fixture so job results and test results come from
the same engine configuration.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
