"""The paper's test-suite: collection, measurement, storage, selection feed.

This is the reproduction of the paper's core artifact (§4-§5): the
3-tier client that discovers paths to every available server, measures
latency/loss/bandwidth over each, and batch-stores statistics in the
document database for later path selection.

Components mirror the original scripts:

* ``test_suite.sh``  -> :mod:`repro.suite.cli`
* ``collect_paths.py`` -> :mod:`repro.suite.collect`
* ``run_tests.py``   -> :mod:`repro.suite.runner`
"""

from repro.suite.config import SuiteConfig
from repro.suite.collect import PathsCollector, CollectionReport
from repro.suite.storage import StatsRepository, stats_document_id
from repro.suite.runner import TestRunner, CampaignReport
from repro.suite.faults import FaultPlan, ServerOutage, DataLossFault

__all__ = [
    "SuiteConfig",
    "PathsCollector",
    "CollectionReport",
    "StatsRepository",
    "stats_document_id",
    "TestRunner",
    "CampaignReport",
    "FaultPlan",
    "ServerOutage",
    "DataLossFault",
]
