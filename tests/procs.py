"""What the process-supervision tests read off ``/proc``."""
import os


def processes():
    """pid -> (ppid, pgrp) of every live (non-zombie) process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z":
            table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table
