"""Persistent, content-addressed run ledger with regression comparison.

Every ``run``/``report``/``profile``/``fuzz`` invocation (and every
benchmark driver, via ``benchmarks/common.py``) appends one record under
``.repro/ledger/`` — override the location with the
``REPRO_LEDGER_DIR`` environment variable.  A record is an envelope::

    {
      "record_id": "<sha256 of the canonical body JSON>",
      "seq": 17,
      "wall_time": 1754650000.123,
      "body": {
        "kind": "report", "target": "filterbank",
        "spec_hash": "...", "backend": "laminar-c",
        "pipeline": "default", "iterations": 4,
        "flags": {...}, "checksum": "0123abcd...",
        "seconds": 0.8431, "metrics": {...}
      }
    }

The **body** is what is content-addressed: two runs with identical
configuration and identical measurements share a ``record_id``, while
``seq``/``wall_time`` (assigned at append time) order the trajectory.
``python -m repro history TARGET`` lists a target's records,
``python -m repro compare A B`` diffs two of them and signals a
regression (exit 1) when the primary metric grew past the threshold.

Each record is its own ``NNNNNN.json`` file, claimed by seq with
``O_EXCL`` and fsynced before :func:`append` returns.  Seqs come from a
per-process, per-directory hint (:class:`_SeqHints`): the directory is
listed once per process on first use, seqs are then reserved under a
lock, and it is listed again only when a claim fails because another
process appended.  An append therefore costs one ``O_EXCL`` create and
one fsync whatever the ledger's size.  Ordering invariant: a new
record's seq is greater than that of every record present when the
appending process last listed the directory, so one process's records
are numbered in the order it appended them.  Seqs may skip numbers
(several writers, or a process that reserved and then crashed); readers
sort by seq and never assume they are dense.

Record references accepted by :func:`resolve`:

* a ``record_id`` prefix (≥ 6 hex chars);
* a target name — its most recent record;
* ``TARGET~N`` — the N-th record before the most recent (``~0`` ≡
  latest, like git revision suffixes).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

LEDGER_ENV = "REPRO_LEDGER_DIR"
DEFAULT_LEDGER_DIR = Path(".repro") / "ledger"


class LedgerError(Exception):
    """A ledger reference did not resolve (missing dir, unknown ref)."""


def ledger_dir() -> Path:
    """The active ledger directory (not necessarily existing yet)."""
    override = os.environ.get(LEDGER_ENV)
    if override:
        return Path(override)
    return DEFAULT_LEDGER_DIR


def canonical_json(value: object) -> str:
    """Deterministic JSON used for hashing record bodies."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_id(body: dict) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def make_body(kind: str, target: str, *, spec_hash: str | None = None,
              backend: str | None = None, pipeline: str | None = None,
              iterations: int | None = None,
              flags: dict | None = None, checksum: str | None = None,
              seconds: float | None = None,
              metrics: dict | None = None,
              request_id: str | None = None,
              trace_id: str | None = None) -> dict:
    """The content-addressed part of a record; ``None`` fields dropped.

    ``request_id``/``trace_id`` tie a serve-daemon record back to the
    HTTP request (and the client's ``traceparent``) that produced it —
    note they make otherwise-identical runs distinct records, which is
    the point: each request is its own trajectory entry.
    """
    body = {
        "kind": kind,
        "target": target,
        "spec_hash": spec_hash,
        "backend": backend,
        "pipeline": pipeline,
        "iterations": iterations,
        "flags": flags or {},
        "checksum": checksum,
        "seconds": seconds,
        "metrics": metrics or {},
        "request_id": request_id,
        "trace_id": trace_id,
    }
    return {key: value for key, value in body.items() if value is not None}


# Current records are keyed by sequence number alone; the legacy
# ``NNNNNN-rid12.json`` form (PR 6) is still read, and its seqs are
# never handed out again.
_FILE_RE = re.compile(r"^(\d{6})(?:-([0-9a-f]{12}))?\.json$")


def append(body: dict, directory: Path | None = None) -> dict:
    """Append one record to the ledger; returns the stored envelope.

    Costs one ``O_EXCL`` create and one fsync, whatever the ledger's
    size: the seq comes from this process's hint for the directory (see
    :class:`_SeqHints`), not from listing it.
    """
    directory = directory or ledger_dir()
    rid = record_id(body)
    tail, seq = _HINTS.reserve(directory)
    while True:
        # The claim file is keyed by the sequence number *alone*, so two
        # concurrent appends can never both own one seq.
        path = directory / f"{seq:06d}.json"
        try:
            if tail.legacy and any(directory.glob(f"{seq:06d}-*.json")):
                raise FileExistsError(path)  # a legacy record owns it
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            # Another process appended since we last looked.
            tail, seq = _HINTS.resync(directory)
            continue
        envelope = {"record_id": rid, "seq": seq,
                    "wall_time": time.time(), "body": body}
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True, indent=1)
            handle.write("\n")
            # A ledger record claims its seq forever; make it durable
            # before reporting success so a crash right after the append
            # cannot lose (or half-write) an acknowledged record.
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:
                pass
        tail.anchor = path.name
        return envelope


@dataclass
class _Tail:
    """What this process knows about the end of one ledger directory."""

    next_seq: int
    # A record file known to exist there: if it vanishes, the directory
    # was cleared or deleted and recreated (ext4 reuses inode numbers).
    anchor: str | None
    legacy: bool  # the last listing found NNNNNN-<rid>.json names


class _SeqHints:
    """Per-directory next-seq hints, so appends need not list the ledger.

    Keyed by the directory's ``(st_dev, st_ino)``, which survives a
    ``chdir`` under a relative ledger path.  A directory is listed once
    per process on first use; after that seqs are reserved under a lock
    (the hint moves on by one per reservation), so threads of one
    process never collide.  Only a failed ``O_EXCL`` claim — another
    process appended — or a vanished anchor record lists it again.

    Invariant: a new record's seq is greater than that of every record
    that was present when this process last listed the directory.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tails: dict[tuple[int, int], _Tail] = {}

    def reserve(self, directory: Path) -> tuple[_Tail, int]:
        """The next seq for ``directory`` (created if missing)."""
        key = _directory_key(directory)
        with self._lock:
            tail = self._tails.get(key)
            if tail is None or (tail.anchor is not None and not
                                (directory / tail.anchor).exists()):
                tail = self._tails[key] = _scan(directory)
            return self._take(tail)

    def resync(self, directory: Path) -> tuple[_Tail, int]:
        """List ``directory`` again after a lost claim; the next seq."""
        key = _directory_key(directory)
        fresh = _scan(directory)
        with self._lock:
            tail = self._tails.setdefault(key, fresh)
            # Seqs reserved by this process but not yet created do not
            # show in the listing; never hand them out twice.
            tail.next_seq = max(tail.next_seq, fresh.next_seq)
            tail.legacy = fresh.legacy
            return self._take(tail)

    @staticmethod
    def _take(tail: _Tail) -> tuple[_Tail, int]:
        seq = tail.next_seq
        tail.next_seq += 1
        return tail, seq


def _directory_key(directory: Path) -> tuple[int, int]:
    try:
        stat = os.stat(directory)
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        stat = os.stat(directory)
    return stat.st_dev, stat.st_ino


def _scan(directory: Path) -> _Tail:
    """One listing of ``directory``: the tail just past its records."""
    highest, anchor, legacy = 0, None, False
    with os.scandir(directory) as entries:
        for entry in entries:
            match = _FILE_RE.match(entry.name)
            if not match:
                continue
            legacy = legacy or match.group(2) is not None
            seq = int(match.group(1))
            if seq > highest:
                highest, anchor = seq, entry.name
    return _Tail(next_seq=highest + 1, anchor=anchor, legacy=legacy)


_HINTS = _SeqHints()


def load_records(directory: Path | None = None,
                 target: str | None = None) -> list[dict]:
    """Every ledger envelope, oldest first; optionally one target's."""
    directory = directory or ledger_dir()
    if not directory.is_dir():
        raise LedgerError(
            f"no ledger at {directory} (set {LEDGER_ENV} or run a "
            "command that records one, e.g. `python -m repro report "
            "filterbank`)")
    records = []
    for entry in sorted(directory.iterdir()):
        if not _FILE_RE.match(entry.name):
            continue
        try:
            envelope = json.loads(entry.read_text())
        except OSError:
            continue  # vanished mid-scan (concurrent cleanup)
        except json.JSONDecodeError as error:
            # A torn write (crash mid-append) must not poison the whole
            # history — but it should not be silent either.
            warnings.warn(
                f"skipping unparseable ledger record {entry}: {error}",
                RuntimeWarning, stacklevel=2)
            continue
        if isinstance(envelope, dict) and "body" in envelope:
            records.append(envelope)
    records.sort(key=lambda env: (env.get("seq", 0),
                                  env.get("record_id", "")))
    if target is not None:
        records = [env for env in records
                   if env["body"].get("target") == target]
    return records


_HEX_RE = re.compile(r"^[0-9a-f]{6,64}$")


def resolve(ref: str, directory: Path | None = None) -> dict:
    """Resolve a record reference (see module docstring) to an envelope."""
    records = load_records(directory)
    base, back = ref, 0
    if "~" in ref:
        base, _, suffix = ref.rpartition("~")
        try:
            back = int(suffix)
        except ValueError:
            raise LedgerError(f"bad record reference {ref!r}: expected "
                              "TARGET~N with integer N") from None
    matching = [env for env in records if env["body"].get("target") == base]
    if matching:
        if back >= len(matching):
            raise LedgerError(
                f"{ref!r} reaches past the ledger: only {len(matching)} "
                f"record(s) for target {base!r}")
        return matching[-1 - back]
    if _HEX_RE.match(base):
        by_id = [env for env in records
                 if env["record_id"].startswith(base)]
        if len(by_id) == 1:
            return by_id[0]
        if len(by_id) > 1:
            raise LedgerError(f"record id prefix {base!r} is ambiguous "
                              f"({len(by_id)} matches)")
    raise LedgerError(f"no ledger record matches {ref!r} (not a known "
                      "target or record-id prefix)")


# -- comparison ---------------------------------------------------------------

@dataclass
class MetricDelta:
    name: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 1.0
        return self.after / self.before


@dataclass
class Comparison:
    """Outcome of diffing two ledger records."""

    before: dict
    after: dict
    metric: str
    threshold: float
    regression: bool
    metric_before: float | None
    metric_after: float | None
    checksum_changed: bool
    deltas: list[MetricDelta] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "before": self.before["record_id"],
            "after": self.after["record_id"],
            "metric": self.metric,
            "threshold": self.threshold,
            "regression": self.regression,
            "metric_before": self.metric_before,
            "metric_after": self.metric_after,
            "checksum_changed": self.checksum_changed,
            "deltas": [{"name": delta.name, "before": delta.before,
                        "after": delta.after, "ratio": delta.ratio}
                       for delta in self.deltas],
        }


def _metric_value(body: dict, metric: str) -> float | None:
    if metric in body and isinstance(body[metric], (int, float)):
        return float(body[metric])
    value = body.get("metrics", {}).get(metric)
    if isinstance(value, dict):  # histogram summary: compare the mean
        value = value.get("mean")
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare(before: dict, after: dict, *, metric: str = "seconds",
            threshold: float = 0.25) -> Comparison:
    """Diff two envelopes; flag a regression when the primary ``metric``
    grew by more than ``threshold`` (fractional, 0.25 = +25%)."""
    value_before = _metric_value(before["body"], metric)
    value_after = _metric_value(after["body"], metric)
    regression = (value_before is not None and value_after is not None
                  and value_before > 0
                  and value_after > value_before * (1.0 + threshold))
    deltas = []
    metrics_before = before["body"].get("metrics", {})
    metrics_after = after["body"].get("metrics", {})
    for name in sorted(set(metrics_before) & set(metrics_after)):
        lhs = _metric_value(before["body"], name)
        rhs = _metric_value(after["body"], name)
        if lhs is None or rhs is None or lhs == rhs:
            continue
        deltas.append(MetricDelta(name=name, before=lhs, after=rhs))
    checksum_changed = (
        before["body"].get("checksum") is not None
        and after["body"].get("checksum") is not None
        and before["body"]["checksum"] != after["body"]["checksum"])
    return Comparison(before=before, after=after, metric=metric,
                      threshold=threshold, regression=regression,
                      metric_before=value_before, metric_after=value_after,
                      checksum_changed=checksum_changed, deltas=deltas)


def format_comparison(result: Comparison) -> str:
    lines = []
    before, after = result.before, result.after
    lines.append(f"before: {before['record_id'][:12]} seq={before['seq']} "
                 f"({before['body'].get('kind')} "
                 f"{before['body'].get('target')})")
    lines.append(f"after:  {after['record_id'][:12]} seq={after['seq']} "
                 f"({after['body'].get('kind')} "
                 f"{after['body'].get('target')})")
    if result.metric_before is None or result.metric_after is None:
        lines.append(f"{result.metric}: not recorded in both records")
    else:
        ratio = (result.metric_after / result.metric_before
                 if result.metric_before else float("inf"))
        lines.append(f"{result.metric}: {result.metric_before:g} -> "
                     f"{result.metric_after:g} ({ratio:.2f}x, threshold "
                     f"{1.0 + result.threshold:.2f}x)")
    if result.checksum_changed:
        lines.append("warning: output checksums differ — the runs are "
                     "not computing the same thing")
    for delta in result.deltas:
        lines.append(f"  {delta.name}: {delta.before:g} -> "
                     f"{delta.after:g} ({delta.ratio:.2f}x)")
    lines.append("regression: " + ("YES" if result.regression else "no"))
    return "\n".join(lines)


def format_history(records: list[dict]) -> str:
    """A one-line-per-record table, newest first, with ~N refs."""
    lines = []
    newest_first = list(reversed(records))
    for back, envelope in enumerate(newest_first):
        body = envelope["body"]
        stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                              time.localtime(envelope["wall_time"]))
        seconds = body.get("seconds")
        took = f"{seconds:8.3f}s" if isinstance(seconds, (int, float)) \
            else "       --"
        checksum = body.get("checksum") or "-"
        lines.append(f"~{back:<3} {envelope['record_id'][:12]} {stamp} "
                     f"{body.get('kind', '?'):<8} "
                     f"{body.get('backend') or '-':<12} {took} "
                     f"{str(checksum)[:16]}")
    return "\n".join(lines)
