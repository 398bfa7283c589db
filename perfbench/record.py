"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every distinct command of every workload variant once and writes
perfbench/reference.json: per command key, the exit code and the digests of
stdout and of the files the command writes.  Run it only on a commit whose
outputs are known to be right; a later change that alters any output then
shows as failed operations in the benchmark instead of as a gain.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads


def main() -> int:
    if not harness.program_present():
        print(f"error: no semind sources under {harness.SRC}", file=sys.stderr)
        return 2
    env = harness.child_env()
    entries = {}
    harness.WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=harness.WORK_ROOT))
    try:
        for name in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                wl = workloads.build(name, variant)
                cwd = harness.prepare_dir(tmp / f"{name}-{variant}", wl)
                for cmd in wl.commands:
                    key = harness.command_key(cmd, wl)
                    if key in entries:
                        continue
                    proc = harness.run_semind(cmd, cwd, env, 600)
                    entries[key] = {"argv": list(cmd.argv),
                                    **harness.observe(cmd, proc.exit, proc.stdout, cwd)}
                    print(f"{proc.wall_s:7.2f} s exit={proc.exit} {name}/{variant}: "
                          f"{' '.join(cmd.argv)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    harness.REFERENCE.write_text(json.dumps(
        {"commit": harness.git_commit(), "entries": dict(sorted(entries.items()))},
        indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {harness.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
