"""Run one benchmark workload against the trajmem package in ``src/``.

    python3 perfbench/run.py --workload recall-1k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps every
layer and reports the per-layer metrics instead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it are a readable table and one ``detail``
line with the environment, sample counts and (traced) the span table.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("recall-1k", "explore-nomem", "learn-interleaved")

DISK_NOTE = (
    "store reads and writes are served by the page cache of the machine the run "
    "shares, not by a device, so disk-bound numbers describe that cache"
)


# ioctl numbers of FS_IOC_GETFLAGS / FS_IOC_SETFLAGS on 64-bit Linux, and the
# flag ``chattr +T`` sets.
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(folder: Path) -> None:
    """Ask the file system to place each new subdirectory of ``folder`` in a
    block group of its own, as ``chattr +T`` does.

    On ext4 without a journal an inode freed in the last one to six minutes
    is not handed out again, and every new inode in its block group first
    steps past each such inode. A run frees tens of thousands of inodes when
    it ends, so without this the next run's set-ups pay for them: over five
    back-to-back ``recall-1k`` runs set-up time rose from 3.2 s to 7.4 s,
    most of it system time. With the flag each run's directory, whose name
    holds the process id, starts in a block group picked by the hash of that
    name, away from those inodes, and everything the run creates stays near
    it. Where the flag is not supported, nothing changes.
    """
    try:
        descriptor = os.open(folder, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = struct.unpack("i", fcntl.ioctl(descriptor, FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
        fcntl.ioctl(descriptor, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(descriptor)


def median(samples: list) -> float:
    # A run whose operations all failed has no samples; it reports 0 and fails.
    return float(statistics.median(samples)) if samples else 0.0


def tail(samples: list[int]) -> tuple[int, float]:
    """The highest percentile up to p95 with at least ten samples beyond it
    (nearest rank), as (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0, 0.0
    q = 95
    while q > 50 and n - math.ceil(q * n / 100) < 10:
        q -= 1
    return q, float(ordered[max(0, math.ceil(q * n / 100) - 1)])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trajmem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "disk": DISK_NOTE,
    }


def end_to_end(result, peak_rss_mb: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics for the final line, the ones only printed, and the
    sample counts behind them."""
    episode_q, episode_tail = tail(result.episode_ns)
    ingest_q, ingest_tail = tail(result.ingest_ns)
    metrics = {
        "setup_s": (median(result.setup_ns) / 1e9, "s"),
        "episode_ms.p95": (episode_tail / 1e6, "ms"),
        "store_bytes_per_entry": (result.store_bytes_per_entry, "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ex_percent": (100.0 * sum(result.correct_flags) / max(1, len(result.correct_flags)), "%"),
        "steps_per_episode": (statistics.fmean(result.steps) if result.steps else 0.0, "count"),
    }
    # These swing from run to run far more than a bound can hold (see
    # README), so they are printed but not bounded. The episode median and
    # the throughput follow the share of a run the shared machine spends in
    # its slow state; the tail percentile above sits in that state in every run.
    printed = {
        "episode_ms.p50": (median(result.episode_ns) / 1e6, "ms"),
        "ops_per_s": (result.measured_ops / max(result.measured_ns, 1) * 1e9, "1/s"),
        "ingest_ms.p50": (median(result.ingest_ns) / 1e6, "ms"),
        "ingest_ms.p95": (ingest_tail / 1e6, "ms"),
        "mine_ms.p50": (median(result.mine_ns) / 1e6, "ms"),
        "ops_failed_ratio": (result.failed / max(1, result.attempted), "ratio"),
    }
    samples = {
        "setup": len(result.setup_ns),
        "episode": len(result.episode_ns),
        "episode_tail_percentile": episode_q,
        "ingest": len(result.ingest_ns),
        "ingest_tail_percentile": ingest_q,
        "mine": len(result.mine_ns),
    }
    return metrics, printed, samples


def by_store_size(pairs: list[tuple[int, int]], buckets: int = 4) -> list[dict]:
    """Median episode ms per band of entries in the question's database."""
    if not pairs:
        return []
    top = max(size for size, _ in pairs) + 1
    rows = []
    for band in range(buckets):
        low, high = band * top // buckets, (band + 1) * top // buckets
        times = [ns for size, ns in pairs if low <= size < high]
        if times:
            rows.append({"entries": [low, high - 1], "n": len(times),
                         "episode_ms.p50": statistics.median(times) / 1e6})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trajmem" / "__init__.py").is_file():
        print(f"error: no trajmem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trajmem

    if Path(trajmem.__file__).resolve().parent != SRC / "trajmem":
        print(f"error: imported trajmem from {trajmem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.parent.mkdir(parents=True, exist_ok=True)
    spread_subdirectories(work.parent)
    work.mkdir()
    try:
        result = workloads.Result()
        bench = workloads.Bench(work, args.seed, result)
        workload = workloads.WORKLOADS[args.workload]
        build = workload.make_setup(bench)
        tracer = tracing.Tracer() if args.trace else None
        for _ in range(workload.rounds):
            for _ in range(workload.setups):
                prepared = bench.setup(build)
            if tracer is not None:
                tracing.install(tracer)
            untime = workloads.time_episodes(result)
            try:
                workload.measure(bench, prepared, args.seconds / workload.rounds)
            finally:
                untime()
                if tracer is not None:
                    tracer.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, printed, samples = end_to_end(result, peak_rss_mb)
    detail = {
        "environment": environment(args.workload, args.seed, args.trace),
        "samples": samples,
        "measured_s": result.measured_ns / 1e9,
        "setup_s": [ns / 1e9 for ns in result.setup_ns],
        "unbounded": {name: value for name, (value, _) in printed.items()},
        "failures": result.failures[:20],
    }
    if args.workload == "learn-interleaved":
        detail["episode_ms_by_store_size"] = by_store_size(result.by_store_size)
    if tracer is not None:
        coverage = tracing.coverage_errors(tracer, args.workload)
        detail["coverage_errors"] = coverage
        detail["spans"] = tracer.table()
        reported = tracing.layer_metrics(tracer, result.measured_ops, result.records_written)
        reported["trace.episode_ms.p50"] = printed["episode_ms.p50"]
    else:
        coverage = []
        reported = e2e

    failed = result.failed + len(coverage)
    for message in result.failures[:20] + coverage:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result.attempted} failed={failed}")
    rows = dict(reported) if args.trace else {**reported, **printed}
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  samples: {json.dumps(samples)}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
