"""Shared builders for tests."""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator, Sequence

from trajmem.model import Phase, Question, Step, ToolInvocation, Trajectory, append_step
from trajmem.store import MemoryEntry, structure_trajectory


def invocation(name: str, **args: object) -> ToolInvocation:
    return ToolInvocation(
        tool_name=name,
        args={key: str(value) for key, value in args.items()},
        output="ok",
        succeeded=True,
    )


def step(
    index: int,
    tools: tuple[str, ...] = (),
    action: str | None = None,
    thought: str = "",
    observation: str = "",
    phase: Phase | None = None,
) -> Step:
    if action is None:
        action = "\n".join(f"{name}()" for name in tools)
    return Step(
        index=index,
        thought=thought,
        action_code=action,
        invocations=[invocation(name) for name in tools],
        observation=observation,
        phase=phase,
    )


def trajectory(
    steps: list[Step], question_id: str = "q", database_id: str = "db"
) -> Trajectory:
    built = Trajectory(question_id=question_id, database_id=database_id)
    for item in steps:
        append_step(built, item)
    return built


def tool_trajectory(
    pairs: list[tuple[str, Phase]], question_id: str = "q", database_id: str = "db"
) -> Trajectory:
    """A classified trajectory with one invocation per step."""
    steps = [
        Step(
            index=index,
            action_code=f"{name}()",
            invocations=[invocation(name)],
            phase=phase,
        )
        for index, (name, phase) in enumerate(pairs)
    ]
    return trajectory(steps, question_id, database_id)


def memory_entry(
    question_id: str,
    database_id: str,
    text: str,
    steps: Sequence[Step] = (),
    created_at: str = "2026-01-01T00:00:00+00:00",
) -> MemoryEntry:
    """An entry for a synthetic question, with the segments that
    ``trajectory(steps, question_id, database_id)`` renders; ``persist`` it
    with that trajectory."""
    question = Question(
        id=question_id, text=text, database_id=database_id, synthetic=True
    )
    return MemoryEntry(
        question=question,
        structured=structure_trajectory(trajectory(list(steps), question_id, database_id)),
        created_at=created_at,
    )


def restamp_index_line(entry_dir: Path) -> None:
    """Give the entry's line in its database's index the stamp its
    ``meta.json`` has now, so a load takes the entry from that line."""
    index = entry_dir.parent / ".index.jsonl"
    meta = os.stat(entry_dir / "meta.json")
    lines = []
    for raw in index.read_text(encoding="utf-8").splitlines():
        line = json.loads(raw)
        if line["question"]["id"] == entry_dir.name:
            line["stamp"] = [meta.st_ino, meta.st_mtime_ns, meta.st_ctime_ns, meta.st_size]
        lines.append(json.dumps(line, ensure_ascii=False, separators=(",", ":")) + "\n")
    index.write_text("".join(lines), encoding="utf-8")


# Ways to leave a meta.json's trajectory unable to render the entry's segments.
_UNRENDERABLE = {
    "trajectory missing": lambda meta: meta.pop("trajectory"),
    "unclassified step": lambda meta: meta["trajectory"]["steps"][1].update(phase=None),
    "unknown phase": lambda meta: meta["trajectory"]["steps"][1].update(phase="planning"),
}
UNRENDERABLE = sorted(_UNRENDERABLE)


def break_segments(entry_dir: Path, damage: str) -> None:
    """Leave the entry's ``meta.json``, which holds no segments, with a
    trajectory that cannot render them, damaged as ``UNRENDERABLE`` names."""
    meta = json.loads((entry_dir / "meta.json").read_text(encoding="utf-8"))
    assert "segments" not in meta
    _UNRENDERABLE[damage](meta)
    (entry_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


class _LoopbackServer(ThreadingHTTPServer):
    # Join each handler thread on close, so none outlives its test.
    daemon_threads = False


@contextmanager
def chat_server(*replies: Any) -> Iterator[tuple[str, list[dict[str, Any]]]]:
    """Serve chat POSTs (and any GET) on 127.0.0.1 while the block runs;
    yield its URL and the list of calls it received, each as its method,
    headers and JSON body (``None`` when it has none).

    The calls get the replies in turn, cycling: a ``(status, body)``
    pair, or ``(status, body, headers)``, where a body that is not bytes is
    sent as JSON; bytes, written as the whole response; or ``None`` to answer
    nothing until the block exits."""
    posts: list[dict[str, Any]] = []
    stop = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            posts.append({
                "method": self.command,
                "headers": dict(self.headers),
                "json": json.loads(body) if body else None,
            })
            reply = replies[(len(posts) - 1) % len(replies)]
            if reply is None:
                stop.wait()
                return
            if isinstance(reply, bytes):
                self.wfile.write(reply)
                self.close_connection = True
                return
            status, payload, *headers = reply
            if not isinstance(payload, bytes):
                payload = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            for name, value in {"Content-Type": "application/json", **dict(*headers)}.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST

        def log_message(self, format: str, *args: Any) -> None:
            pass

    server = _LoopbackServer(("127.0.0.1", 0), Handler)
    # A short poll interval, so that shutdown returns at once.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/chat", posts
    finally:
        stop.set()
        server.shutdown()
        thread.join()
        server.server_close()


def refused_url() -> str:
    """A loopback URL whose port was free a moment ago, so connecting to it
    is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}/chat"


def still_open(opened: list[tuple[str, sqlite3.Connection]]) -> list[str]:
    """The database argument of each connection in ``opened`` not yet closed."""
    return [database for database, conn in opened if not _is_closed(conn)]


def _is_closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.total_changes
    except sqlite3.ProgrammingError:
        return True
    return False
