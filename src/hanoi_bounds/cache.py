"""Advisory JSON cache for expensive search results.

Deep searches (exact transfer counts and essential-path lengths) can take
seconds to minutes; verification suites rerun them often.  Values are
memoized in a JSON file keyed by (kind, pegs, disks, engine version).
The cache is advisory: a missing, stale, or corrupt file only costs a
recomputation, and --no-cache bypasses it entirely.  Saving merges into
the file, so concurrent runs keep each other's entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

try:
    import fcntl
except ImportError:  # no advisory file locks on this platform
    fcntl = None

__all__ = ["ENGINE_VERSION", "ResultCache", "default_cache_dir"]

ENGINE_VERSION = 2


def default_cache_dir() -> Path:
    override = os.environ.get("HANOI_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hanoi-bounds"


class ResultCache:
    """File-backed memo of search results; disabled instances are no-ops."""

    def __init__(self, directory: Path | None = None, enabled: bool = True):
        self.enabled = enabled
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / "results.json"
        self._entries: dict[str, int] = {}
        self._dirty = False
        if self.enabled:
            self._load()

    @staticmethod
    def _key(kind: str, p: int, n: int) -> str:
        return f"{kind}:p{p}:n{n}:e{ENGINE_VERSION}"

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                data = json.load(handle)
            entries = data.get("entries", {})
            self._entries = {str(k): int(v) for k, v in entries.items()}
        except (OSError, ValueError, AttributeError):
            self._entries = {}

    def get(self, kind: str, p: int, n: int) -> int | None:
        if not self.enabled:
            return None
        return self._entries.get(self._key(kind, p, n))

    def put(self, kind: str, p: int, n: int, value: int) -> None:
        if not self.enabled:
            return
        key = self._key(kind, p, n)
        if self._entries.get(key) != value:
            self._entries[key] = value
            self._dirty = True

    def save(self) -> None:
        """Re-read the file, overlay this instance's entries on it and
        replace it atomically, holding an exclusive lock on a sibling
        ``results.json.lock`` throughout."""
        if not self.enabled or not self._dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / "results.json.lock", "a") as lock:
            if fcntl is not None:
                fcntl.flock(lock, fcntl.LOCK_EX)
            own = self._entries
            self._load()
            self._entries.update(own)
            payload = {"engine": ENGINE_VERSION, "entries": self._entries}
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=0, sort_keys=True)
                os.replace(tmp_name, self.path)
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
        self._dirty = False
