import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.experiments import spark_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from the
    same builder the experiment driver uses (``repro.experiments``)."""
    s = spark_session("repro")
    # One line in the test log that tells whether the cgroup derivation of
    # the driver memory saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
