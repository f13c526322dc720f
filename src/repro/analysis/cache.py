"""Content-hash result cache for ``repro lint``.

Warm lint runs in CI re-analyze a tree that is almost entirely
unchanged.  The cache keys *results* — never parses — on content:

* **per-file**: the file's SHA-256 plus the config fingerprint keys the
  per-file pass's findings, suppressed count, and which suppression
  lines fired (so MEGH013 stays exact on replay);
* **whole-program**: one entry keyed over the sorted (path, SHA-256)
  set of every parsed module, because a flow/shape finding in file A can
  be caused by an edit in file B — any change anywhere invalidates it.

Every file is still *parsed* on every run: the whole-program pass needs
all ASTs regardless, and the parse-once discipline (one ``ast.parse``
per file per invocation) is the invariant the engine's tests pin.  What
a hit skips is rule execution.

The config fingerprint folds in ``select``/``ignore`` *and* a
toolchain hash over every source file of ``repro.analysis``
itself — the per-file rules, meghflow, and meghshape alike — so
editing any analyzer module invalidates the whole cache: a stale
result can never outlive the code that produced it.

Storage is one JSON document, ``meghlint-cache.json``, under the
directory given to ``repro lint --cache-dir``.  A missing, unreadable,
or version-mismatched document is treated as empty, never as an error:
the cache is an accelerator, not a dependency.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.diagnostics import Diagnostic

__all__ = ["CACHE_FILE_NAME", "CACHE_VERSION", "FileRecord", "LintCache"]

CACHE_FILE_NAME = "meghlint-cache.json"
CACHE_VERSION = 1

#: Key under which the whole-program (flow + shape) record is stored.
_WHOLE_PROGRAM_KEY = "__whole_program__"


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _toolchain_sources(package_root: Optional[Path] = None) -> List[Path]:
    """Every analyzer source file folded into the toolchain hash.

    Exposed (and parameterized) so the cache-invalidation regression
    tests can assert that each analysis subpackage — including newly
    added ones like ``repro.analysis.shape`` — is covered, and that
    mutating any of these files busts the cache.
    """
    root = (
        package_root
        if package_root is not None
        else Path(__file__).resolve().parent
    )
    return sorted(root.rglob("*.py"))


def _toolchain_hash(package_root: Optional[Path] = None) -> str:
    """Hash of every ``repro.analysis`` source file (rule changes
    invalidate cached results)."""
    root = (
        package_root
        if package_root is not None
        else Path(__file__).resolve().parent
    )
    digest = hashlib.sha256()
    for source in _toolchain_sources(root):
        digest.update(source.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass
class FileRecord:
    """Cached outcome of one pass over one (or all) file(s)."""

    #: Content key: file SHA-256, or the project fingerprint for the
    #: whole-program record.
    sha: str
    diagnostics: List[Dict[str, Union[str, int]]] = field(
        default_factory=list
    )
    suppressed: int = 0
    #: ``path -> {line -> times fired}`` suppression usage to replay
    #: (per-file records use a single-path map for uniformity).
    marks: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "sha": self.sha,
            "diagnostics": self.diagnostics,
            "suppressed": self.suppressed,
            "marks": self.marks,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "FileRecord":
        return cls(
            sha=str(raw["sha"]),
            diagnostics=list(raw.get("diagnostics", [])),
            suppressed=int(raw.get("suppressed", 0)),
            marks={
                str(path): {
                    str(line): int(count)
                    for line, count in lines.items()
                }
                for path, lines in dict(raw.get("marks", {})).items()
            },
        )

    def replay_diagnostics(self) -> List[Diagnostic]:
        return [Diagnostic.from_dict(raw) for raw in self.diagnostics]


class LintCache:
    """Content-addressed store of per-file and whole-program results."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ValueError(
                f"cache directory {self.directory} is not a usable "
                f"directory ({error.strerror or error})"
            ) from error
        self.path = self.directory / CACHE_FILE_NAME
        self.hits = 0
        self.misses = 0
        self._records: Dict[str, FileRecord] = {}
        self._seen: Dict[str, FileRecord] = {}
        self._toolchain = _toolchain_hash()
        self._load()

    # -- fingerprints ---------------------------------------------------

    def config_fingerprint(
        self,
        select: Optional[Sequence[str]],
        ignore: Optional[Sequence[str]],
    ) -> str:
        """Fold the rule selection and the analyzer sources into one key."""
        document = {
            "select": sorted(select) if select is not None else None,
            "ignore": sorted(ignore) if ignore is not None else None,
            "toolchain": self._toolchain,
        }
        return _sha256_text(json.dumps(document, sort_keys=True))

    @staticmethod
    def source_sha(source: str) -> str:
        return _sha256_text(source)

    @staticmethod
    def project_fingerprint(path_shas: Sequence[Tuple[str, str]]) -> str:
        """One key over every (path, sha) a whole-program pass saw."""
        digest = hashlib.sha256()
        for path, sha in sorted(path_shas):
            digest.update(path.encode("utf-8"))
            digest.update(b"\0")
            digest.update(sha.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()

    # -- lookup / store -------------------------------------------------

    def lookup(self, key: str, sha: str, fingerprint: str) -> Optional[
        FileRecord
    ]:
        """Replayable record for ``key``, counting the hit or miss."""
        record = self._records.get(self._entry_key(key, fingerprint))
        if record is not None and record.sha == sha:
            self.hits += 1
            self._seen[self._entry_key(key, fingerprint)] = record
            return record
        self.misses += 1
        return None

    def store(
        self, key: str, fingerprint: str, record: FileRecord
    ) -> None:
        self._records[self._entry_key(key, fingerprint)] = record
        self._seen[self._entry_key(key, fingerprint)] = record

    def lookup_whole_program(
        self, fingerprint: str, project_sha: str
    ) -> Optional[FileRecord]:
        """Whole-program record lookup (not counted as a file hit)."""
        record = self._records.get(
            self._entry_key(_WHOLE_PROGRAM_KEY, fingerprint)
        )
        if record is not None and record.sha == project_sha:
            self._seen[
                self._entry_key(_WHOLE_PROGRAM_KEY, fingerprint)
            ] = record
            return record
        return None

    def store_whole_program(
        self, fingerprint: str, record: FileRecord
    ) -> None:
        self.store(_WHOLE_PROGRAM_KEY, fingerprint, record)

    # -- persistence ----------------------------------------------------

    def save(self) -> None:
        """Write back only the records this run looked at or produced.

        Entries for files that vanished from the tree (or for stale
        config fingerprints) are pruned by construction.
        """
        document = {
            "tool": "meghlint",
            "version": CACHE_VERSION,
            "entries": {
                key: record.to_json()
                for key, record in sorted(self._seen.items())
            },
        }
        self.path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, ValueError):
            return
        if not isinstance(document, dict):
            return
        if document.get("version") != CACHE_VERSION:
            return
        entries = document.get("entries")
        if not isinstance(entries, dict):
            return
        for key, raw in entries.items():
            try:
                self._records[str(key)] = FileRecord.from_json(raw)
            except (KeyError, TypeError, ValueError):
                continue

    @staticmethod
    def _entry_key(key: str, fingerprint: str) -> str:
        return f"{fingerprint}:{key}"
