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


def kernel_grants(nbytes):
    """Whether the kernel would commit one uncapped allocation of
    ``nbytes`` now, by ``vm.overcommit_memory``: mode 1 always; mode 0
    (the heuristic) up to MemTotal + SwapTotal; mode 2 (strict) up to
    CommitLimit - Committed_AS."""
    with open("/proc/sys/vm/overcommit_memory") as handle:
        mode = int(handle.read())
    if mode == 1:
        return True
    meminfo = {}
    with open("/proc/meminfo") as handle:
        for line in handle:
            key, value = line.split(":")
            meminfo[key] = int(value.split()[0]) << 10  # kB
    if mode == 0:
        return nbytes <= meminfo["MemTotal"] + meminfo["SwapTotal"]
    return nbytes <= meminfo["CommitLimit"] - meminfo["Committed_AS"]
