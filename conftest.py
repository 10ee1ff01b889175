import sys

import pytest
from pyspark.sql import SparkSession

from repro.experiments import spark_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from the
    same builder the experiment driver uses (``repro.experiments``)."""
    s = spark_session("repro")
    # One line in the test log with the memory and master the JVM got.
    print(
        "[conftest] spark.driver.memory="
        f"{s.sparkContext.getConf().get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
