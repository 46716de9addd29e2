"""Parsing, serialization and task segmentation of multimodal recordings.

Recording file format (documented, versioned):

    format_version 1
    subject_id s01
    t_ms=0 kind=marker marker=task_start task=1
    t_ms=33 kind=au au1=0.5 au12=0.25
    t_ms=33 kind=skeleton head=0.0,1.5,0.1 left_wrist=0.42,1.1,0.3 ...
    t_ms=40 kind=pupil diameter_mm=3.2
    t_ms=120000 kind=marker marker=task_end task=1

One record per line as space-separated key=value tokens; `t_ms` (integer
milliseconds, one shared clock) and `kind` are mandatory, the rest is
kind-specific payload. The `subject_id` header line is optional. Records
of unknown kinds are preserved verbatim in a passthrough list. Lines that
fail to parse are reported with their line number; a file with more than
10% bad record lines is rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .affect import AUFrame, SkeletonFrame

FORMAT_VERSION = 1
BAD_LINE_LIMIT = 0.10

MARKER_KINDS = ("task_start", "task_end")


class IngestError(ValueError):
    """Recording file violates the format. `code` names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class RecordingSession:
    subject_id: Optional[str] = None
    au_stream: List[AUFrame] = field(default_factory=list)
    skeleton_stream: List[SkeletonFrame] = field(default_factory=list)
    markers: List[Tuple[int, str, int]] = field(default_factory=list)
    pupil_stream: List[Tuple[int, float]] = field(default_factory=list)
    passthrough: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    line_errors: List[Tuple[int, str]] = field(default_factory=list)
    resorted: List[str] = field(default_factory=list)  # streams sorted on ingest

    def __eq__(self, other):
        if not isinstance(other, RecordingSession):
            return NotImplemented
        return (self.subject_id == other.subject_id
                and self.au_stream == other.au_stream
                and self.skeleton_stream == other.skeleton_stream
                and self.markers == other.markers
                and self.pupil_stream == other.pupil_stream
                and self.passthrough == other.passthrough)


def _tokens(line: str) -> dict:
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"token {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def parse_recording(text: str) -> RecordingSession:
    """Parse recording text into demultiplexed, time-ordered streams."""
    session = RecordingSession()
    lines = text.splitlines()
    body_start = 0
    nonblank = [ln for ln in lines if ln.strip()]
    if not nonblank:
        return session

    header = nonblank[0].split()
    if len(header) != 2 or header[0] != "format_version":
        raise IngestError("missing-header", "first line must be 'format_version N'")
    if header[1] != str(FORMAT_VERSION):
        raise IngestError("bad-version", f"unsupported format_version {header[1]}")

    records = 0
    seen_header = False
    seen_subject = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_header:
            seen_header = True
            continue
        if not seen_subject and line.startswith("subject_id "):
            session.subject_id = line.split(None, 1)[1]
            seen_subject = True
            continue
        seen_subject = True
        records += 1
        try:
            _parse_record(line, session)
        except ValueError as exc:
            session.line_errors.append((lineno, str(exc)))
        except KeyError as exc:
            session.line_errors.append((lineno, f"missing key {exc}"))
    if records and len(session.line_errors) / records > BAD_LINE_LIMIT:
        raise IngestError(
            "too-many-bad-lines",
            f"{len(session.line_errors)} of {records} record lines failed to parse")

    for name in ("au_stream", "skeleton_stream", "pupil_stream", "markers"):
        stream = getattr(session, name)
        keys = [f.t_ms if hasattr(f, "t_ms") else f[0] for f in stream]
        if keys != sorted(keys):
            stream.sort(key=lambda f: f.t_ms if hasattr(f, "t_ms") else f[0])
            session.resorted.append(name)
            session.warnings.append(f"{name} records arrived out of order; sorted")
    return session


def _parse_record(line: str, session: RecordingSession) -> None:
    kv = _tokens(line)
    if "t_ms" not in kv:
        raise ValueError("missing t_ms")
    raw_t = kv.pop("t_ms")
    try:
        t_ms = int(raw_t)
    except ValueError:
        raise ValueError(f"non-integer t_ms {raw_t!r}")
    kind = kv.pop("kind", None)
    if kind is None:
        raise ValueError("missing kind")

    if kind == "au":
        intensities = {}
        for k, v in kv.items():
            if not k.startswith("au"):
                raise ValueError(f"unexpected au key {k!r}")
            intensities[int(k[2:])] = float(v)
        session.au_stream.append(AUFrame(t_ms, intensities))
    elif kind == "skeleton":
        joints = {}
        for k, v in kv.items():
            parts = v.split(",")
            if len(parts) != 3:
                raise ValueError(f"joint {k!r} needs x,y,z")
            joints[k] = tuple(float(p) for p in parts)
        session.skeleton_stream.append(SkeletonFrame(t_ms, joints))
    elif kind == "marker":
        marker = kv.get("marker")
        if marker not in MARKER_KINDS:
            raise ValueError(f"unknown marker {marker!r}")
        session.markers.append((t_ms, marker, int(kv["task"])))
    elif kind == "pupil":
        session.pupil_stream.append((t_ms, float(kv["diameter_mm"])))
    else:
        session.passthrough.append(line)


def serialize_recording(session: RecordingSession) -> str:
    """Canonical text for a session; parse(serialize(s)) == s."""
    lines = [f"format_version {FORMAT_VERSION}"]
    if session.subject_id is not None:
        lines.append(f"subject_id {session.subject_id}")
    records = []
    for f in session.au_stream:
        payload = " ".join(f"au{n}={f.intensities[n]!r}"
                           for n in sorted(f.intensities))
        records.append((f.t_ms, 0, f"t_ms={f.t_ms} kind=au {payload}".rstrip()))
    for f in session.skeleton_stream:
        payload = " ".join(
            f"{name}={x!r},{y!r},{z!r}"
            for name, (x, y, z) in sorted(f.joints.items()))
        records.append((f.t_ms, 1, f"t_ms={f.t_ms} kind=skeleton {payload}".rstrip()))
    for t, marker, task in session.markers:
        records.append((t, 2, f"t_ms={t} kind=marker marker={marker} task={task}"))
    for t, d in session.pupil_stream:
        records.append((t, 3, f"t_ms={t} kind=pupil diameter_mm={d!r}"))
    for raw in session.passthrough:
        records.append((int(_tokens(raw)["t_ms"]), 4, raw))
    records.sort(key=lambda r: (r[0], r[1]))
    lines.extend(r[2] for r in records)
    return "\n".join(lines) + "\n"


def segment_tasks(session: RecordingSession) -> List[Tuple[int, int, int]]:
    """Task intervals (task_id, t_start, t_end) from start/end markers.

    Each start pairs with the next end for the same task id. Unpaired
    markers are reported on `session.warnings` and excluded. Overlapping
    intervals and ends before starts are errors naming the task id.
    """
    by_task: dict = {}
    for t, marker, task in sorted(session.markers):
        by_task.setdefault(task, []).append((t, marker))

    intervals = []
    for task, events in sorted(by_task.items()):
        open_t = None
        for t, marker in events:
            if marker == "task_start":
                if open_t is not None:
                    session.warnings.append(
                        f"task {task}: start at {open_t} without end; excluded")
                open_t = t
            else:
                if open_t is None:
                    raise IngestError("end-before-start",
                                      f"task {task} ends at {t} before any start")
                if t < open_t:
                    raise IngestError("end-before-start",
                                      f"task {task} end {t} precedes start {open_t}")
                intervals.append((task, open_t, t))
                open_t = None
        if open_t is not None:
            session.warnings.append(
                f"task {task}: start at {open_t} without end; excluded")

    intervals.sort(key=lambda iv: iv[1])
    for (ta, sa, ea), (tb, sb, eb) in zip(intervals, intervals[1:]):
        if sb < ea:
            raise IngestError("overlapping-tasks",
                              f"task {tb} starts at {sb} inside task {ta}")
    if not intervals and not session.markers:
        session.warnings.append("no task markers found")
    return intervals
