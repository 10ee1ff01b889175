import pytest
from pyspark.sql import SparkSession

from repro.experiments import spark_session

SPARK_LINE = pytest.StashKey[str]()


@pytest.fixture(scope="session")
def spark(request) -> SparkSession:
    """One local-mode SparkSession for the whole test session, from the
    same builder the experiment driver uses (``repro.experiments``)."""
    s = spark_session("repro")
    sc = s.sparkContext
    # One line in the test log with the memory and master the JVM got.
    request.config.stash[SPARK_LINE] = (
        "[conftest] spark.driver.memory="
        f"{sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} "
        f"defaultParallelism={sc.defaultParallelism}"
    )
    yield s
    s.stop()


def pytest_terminal_summary(terminalreporter, config):
    """Write the Spark line through the terminal reporter: pytest captures
    the fixture's own output, so a passing run would not show it."""
    if SPARK_LINE in config.stash:
        terminalreporter.write_line(config.stash[SPARK_LINE])
