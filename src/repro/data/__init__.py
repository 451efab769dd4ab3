"""Relational storage substrate: relations, databases, grouping, CSV IO,
and hash partitioning for the parallel subsystem."""

from .database import Database
from .index import group_by
from .loader import (
    load_database_dir,
    load_relation_csv,
    save_database_dir,
    save_relation_csv,
)
from .partition import (
    QueryPartition,
    choose_partition_attribute,
    partition_query,
    rewrite_for_sharding,
    stable_shard,
)
from .relation import Relation

__all__ = [
    "Database",
    "Relation",
    "QueryPartition",
    "choose_partition_attribute",
    "partition_query",
    "rewrite_for_sharding",
    "stable_shard",
    "group_by",
    "load_relation_csv",
    "save_relation_csv",
    "load_database_dir",
    "save_database_dir",
]
