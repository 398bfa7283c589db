"""Shared pieces of the benchmark: child processes, output digests, references.

Every `semind` command runs in its own work directory with a fresh relative
SEMIND_CACHE, so nothing a run writes reaches the source tree and no cache
survives from one sequence to the next.  The program is imported from
`src/` of the checkout the benchmark sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

# what the `semind` console script runs
ENTRY = "import sys; from semind.cli import main; sys.exit(main())"
CACHE_NAME = "cache"


def program_present() -> bool:
    return (SRC / "semind" / "cli.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SEMIND_CACHE"] = CACHE_NAME
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit: int
    stdout: bytes
    stderr: bytes


def run_process(argv, cwd: Path, env: dict, timeout: float) -> Proc:
    """Run one child to completion and return its own resource usage.

    The child is reaped with wait4, so CPU time and peak RSS belong to this
    child alone; a child still running after `timeout` seconds is killed."""
    out_path = cwd.parent / f"{cwd.name}.stdout"
    err_path = cwd.parent / f"{cwd.name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    proc = Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
                out_path.read_bytes(), err_path.read_bytes())
    out_path.unlink()
    err_path.unlink()
    return proc


def run_semind(cmd: Command, cwd: Path, env: dict, timeout: float) -> Proc:
    return run_process([sys.executable, "-c", ENTRY, *cmd.argv], cwd, env, timeout)


def prepare_dir(path: Path, wl: Workload) -> Path:
    path.mkdir(parents=True)
    for name, data in wl.inputs.items():
        (path / name).write_bytes(data)
    return path


# ---------------------------------------------------------------------------
# output check


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_key(cmd: Command, wl: Workload) -> str:
    """Identity of a command: its argv and the digests of the files it reads."""
    ident = {"argv": list(cmd.argv), "reads": {f: _sha(wl.inputs[f]) for f in cmd.reads}}
    return _sha(json.dumps(ident, sort_keys=True).encode())[:32]


def observe(cmd: Command, exit_code: int, stdout: bytes, cwd: Path) -> dict:
    """What the check compares: exit code, stdout digest, written-file digests.

    Archived verification reports are left out: their names carry the time."""
    files = {}
    for rel in cmd.writes:
        path = cwd / rel
        files[rel] = _sha(path.read_bytes()) if path.is_file() else None
    return {"exit": exit_code, "stdout": _sha(stdout), "files": files}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())["entries"]


def matches(reference: dict, key: str, obs: dict) -> bool:
    ref = reference.get(key)
    return ref is not None and all(ref[f] == obs[f] for f in ("exit", "stdout", "files"))


# ---------------------------------------------------------------------------
# machine info


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
        "commit": git_commit(),
    }
