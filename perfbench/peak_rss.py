"""Run a module or a script in this process and write its own peak RSS at exit.

    python peak_rss.py OUT -m MODULE [ARGS...]
    python peak_rss.py OUT SCRIPT [ARGS...]

At exit, OUT receives VmHWM from /proc/self/status, in KiB: the peak resident
set of the address space this process got at exec. The peak that wait4 and
getrusage report is not that. On exec, Linux folds into it the peak of the
address space the process had before, and a child that subprocess starts
with vfork had its parent's. The benchmark's own memory would then count as
the child's.
"""

import atexit
import runpy
import sys


def write_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kib)


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    atexit.register(write_peak, out)
    if args[0] == "-m":
        sys.argv = args[1:]
        runpy.run_module(args[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = args
        runpy.run_path(args[0], run_name="__main__")


if __name__ == "__main__":
    main()
