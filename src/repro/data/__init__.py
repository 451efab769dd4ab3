"""Relational storage substrate: relations, databases, grouping, CSV IO."""

from .database import Database
from .index import group_by
from .loader import (
    load_database_dir,
    load_relation_csv,
    save_database_dir,
    save_relation_csv,
)
from .relation import Relation

__all__ = [
    "Database",
    "Relation",
    "group_by",
    "load_relation_csv",
    "save_relation_csv",
    "load_database_dir",
    "save_database_dir",
]
