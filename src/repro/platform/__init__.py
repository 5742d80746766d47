"""WebFountain platform simulation.

A laptop-scale substitute for the paper's 500-node analytics platform,
preserving the contracts the sentiment miner depends on: entity storage,
annotation layers, miner scheduling, indexing, and hosted services.  See
DESIGN.md Section 2 for the substitution rationale.

The package re-exports only the names its callers import from it; every
other name lives in, and is imported from, its own submodule.
"""

from .cluster import Cluster
from .datastore import DataStore
from .entity import Entity
from .faults import FaultPlan
from .retry import RetryPolicy
from .indexer import InvertedIndex, SentimentIndex
from .ingestion import (
    BulletinBoardIngestor,
    CustomerDataIngestor,
    IngestionManager,
    NewsFeedIngestor,
)
from ..core.mining import MinerPipeline
from .services import register_services
from .vinci import VinciBus

__all__ = [
    "BulletinBoardIngestor",
    "Cluster",
    "CustomerDataIngestor",
    "DataStore",
    "Entity",
    "FaultPlan",
    "IngestionManager",
    "InvertedIndex",
    "MinerPipeline",
    "NewsFeedIngestor",
    "RetryPolicy",
    "SentimentIndex",
    "VinciBus",
    "register_services",
]
