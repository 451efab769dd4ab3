#!/usr/bin/env python
"""Storage-layering gate: physical tuple access stays in the storage layer.

The refactor that introduced :mod:`repro.storage` moved every physical
storage detail — row lists, hash-index dicts, sorted-column caches —
behind the storage layer's access paths, of which ``ScanPath`` is now
the only one.  This gate keeps it that way, as a set of rules
``forbidden spelling -> modules allowed to use it``:

* ``.tuples`` / ``._indexes`` / ``._sorted_cols`` (raw row lists and
  the pre-refactor private caches) and ``.codes_array`` /
  ``.codes_view`` / ``._codes_arr`` (raw code-column arrays) are
  confined to ``repro/storage/`` and ``repro/data/relation.py`` —
  everything else receives arrays through ``Relation.instance_codes()``
  or passes row lists to the kernel helpers;
* ``.scores_view`` / ``._score_cols`` (raw score-column arrays, the
  weight materialisation of ``repro/storage/scores.py``) are confined
  to ``repro/storage/`` and ``repro/core/ranking.py`` — the ranking
  module is the one consumer that turns score columns into key arrays
  (``batched_node_keys`` / ``batched_output_keys``); enumerators and
  everything above them receive plain key lists.

* ``StoreDelta`` / ``.delta_log`` / ``.apply_delta`` / ``.deltas_since``
  (the write-delta plumbing of ``repro/storage/deltas.py``) are
  confined to ``repro/storage/`` and ``repro/data/relation.py`` (the
  mutation surface that forwards store notifications) — everything
  else observes writes through generation counters and rebuilds;

* the snapshot file format (the manifest layout, raw array file names
  and mapped store classes of ``repro/storage/persist.py``) is confined
  to ``repro/storage/`` — every other layer opens snapshots through the
  public persist functions (``save_snapshot`` / ``open_snapshot`` /
  ``open_database`` / ``snapshot_handle``), so the on-disk format
  can evolve behind one module;

* the write-ahead journal's on-disk format (the ``journal.wal`` file
  name, record framing and format markers of
  ``repro/storage/journal.py``) is confined to ``repro/storage/`` —
  consumers open durable databases through ``open_durable`` /
  ``open_database`` and locate the file through ``journal_path``, never
  touching journal bytes themselves;

* the service layer (``repro/service/``) talks only to the session
  engine and public enumerator surfaces: importing ``repro.storage`` or
  ``repro.data`` there is a violation — the server must never bypass
  :class:`~repro.engine.QueryEngine` to touch storage internals, or the
  engine's cache/generation bookkeeping silently stops being the single
  source of truth.

Consumers go through ``Relation.scan()`` / ``instance_rows()`` /
``instance_codes()``, and rankings through the ``batched_*_keys``
functions.  Tests and
benchmarks are intentionally out of scope — white-box assertions there
are fine.

Run:  python tools/check_layering.py

Exits non-zero listing every violation.
"""

from __future__ import annotations

import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

STORAGE = os.path.join("repro", "storage") + os.sep

SERVICE = os.path.join("repro", "service") + os.sep

CORE = os.path.join("repro", "core") + os.sep

#: (rule name, forbidden regex, allowed prefixes/files, hint, scope) —
#: one entry per confinement rule.  ``scope`` restricts which modules a
#: rule examines: ``None`` means repo-wide (with ``allowed`` carving out
#: the owning layer), a prefix means the rule only binds inside it
#: (e.g. the service-isolation rule only constrains ``repro/service/``).
RULES = (
    (
        "raw storage access",
        re.compile(
            r"\.tuples\b|\._indexes\b|\._sorted_cols\b"
            r"|\.codes_array\b|\.codes_view\b|\._codes_arr\b"
        ),
        (STORAGE, os.path.join("repro", "data", "relation.py")),
        "go through the scan path (Relation.scan/instance_rows/"
        "instance_codes)",
        None,
    ),
    (
        "raw score-array access",
        re.compile(r"\.scores_view\b|\._score_cols\b"),
        (STORAGE, os.path.join("repro", "core", "ranking.py")),
        "go through the ranking layer (batched_node_keys/"
        "batched_output_keys in repro.core.ranking)",
        None,
    ),
    (
        "delta plumbing outside the storage layer",
        re.compile(
            r"\bStoreDelta\b|\.delta_log\b|\.apply_delta\b|\.deltas_since\b"
        ),
        (STORAGE, os.path.join("repro", "data", "relation.py")),
        "deltas are a storage-layer contract: consumers observe writes "
        "through generation counters and Relation/AccessPathCache "
        "surfaces (see docs/incremental.md)",
        None,
    ),
    (
        "snapshot file format outside the storage layer",
        re.compile(
            r"\bMappedColumnStore\b|\bMappedDictionary\b"
            r"|\bSNAPSHOT_FORMAT\b|\bSNAPSHOT_VERSION\b"
            r"|manifest\.json|dictionary\.json|\.codes\.mmap|scores\.mmap"
            r"|np\.memmap\b"
        ),
        (STORAGE,),
        "the snapshot file format (manifest layout, array files, mapped "
        "store classes) is a storage-layer contract: consumers go "
        "through the public repro.storage.persist functions "
        "(save_snapshot/open_snapshot/open_database/snapshot_handle) "
        "and never parse or map snapshot files themselves",
        None,
    ),
    (
        "journal file format outside the storage layer",
        re.compile(
            r"journal\.wal|repro-journal|checkpoint-begin"
            r"|\bJOURNAL_FILE\b|\bJOURNAL_FORMAT\b|\bJOURNAL_VERSION\b"
            r"|\bMAX_RECORD_BYTES\b"
        ),
        (STORAGE,),
        "the write-ahead journal's on-disk format (file name, record "
        "framing, format markers) is a storage-layer contract: consumers "
        "go through the public journal surface (open_durable/"
        "journal_path/replay via open_database) and never read or write "
        "journal bytes themselves",
        None,
    ),
    (
        "batched array machinery outside the ranking/enumerator modules",
        re.compile(
            r"\bkernels\.\w|\bscores\.\w"
            r"|\bcombine_score_arrays\b|\bcombine_key_arrays\b"
            r"|\bbatched_node_key|\bbatched_output_keys\b"
            r"|\bbatched_column_keys\b|\bbatched_weight_table\b"
        ),
        (
            os.path.join("repro", "core", "ranking.py"),
            os.path.join("repro", "core", "acyclic.py"),
            os.path.join("repro", "core", "star.py"),
            os.path.join("repro", "core", "lexicographic.py"),
            os.path.join("repro", "core", "cyclic.py"),
        ),
        "inside repro/core the batched-key/array spellings stay confined "
        "to the ranking module and the enumerators that own a vectorised "
        "twin (acyclic/star/lexicographic/cyclic); other core modules "
        "work with plain keys and rows so every batched path keeps a "
        "scalar twin to fall back to",
        CORE,
    ),
    (
        "service reaching below the engine",
        re.compile(
            r"from\s+(?:repro|\.\.)\.?(?:storage|data)\b"
            r"|import\s+repro\.(?:storage|data)\b"
        ),
        (),
        "the service layer talks only to QueryEngine and public "
        "enumerator APIs (repro.engine / repro.core), never to "
        "repro.storage or repro.data internals",
        SERVICE,
    ),
)


def is_allowed(relpath: str, allowed: tuple[str, ...]) -> bool:
    return any(relpath.startswith(a) or relpath == a for a in allowed)


def check() -> list[str]:
    violations: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel_to_src = os.path.relpath(path, os.path.join(REPO_ROOT, "src"))
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            for rule_name, forbidden, allowed, hint, scope in RULES:
                if scope is not None and not rel_to_src.startswith(scope):
                    continue
                if is_allowed(rel_to_src, allowed):
                    continue
                for lineno, line in enumerate(lines, start=1):
                    match = forbidden.search(line)
                    if match:
                        violations.append(
                            f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: "
                            f"{rule_name} {match.group(0)!r} — {hint}"
                        )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print(f"storage layering violations ({len(violations)}):")
        for v in violations:
            print(f"  {v}")
        return 1
    print(
        "layering ok: physical storage access confined to repro/storage "
        "and repro/data/relation.py; score arrays to repro/storage and "
        "repro/core/ranking.py; delta plumbing to repro/storage and "
        "repro/data/relation.py; snapshot and journal file formats to "
        "repro/storage; batched-key machinery in repro/core confined to "
        "ranking.py and the enumerator modules; repro/service isolated "
        "from storage/data"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
