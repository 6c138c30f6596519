#!/usr/bin/env python3
"""Per-thread self and inclusive tables from an sprof sample file.

    python3 scripts/sprof/report.py --samples FILE [--names PERFBENCH_STDOUT]
                                    [--thread ROLE] [--summary]

FILE is what libsprof.so wrote at exit (SPROF_OUT). --names reads the
"thread cpu in window" table perfbench prints (lines "  <role> tid <tid>
..."), so the measured cluster's threads are reported by role. Any other
thread is reported by the name the sampler last saw it under (perfbench
names its threads "pb-<role>", so a set-up cluster's manager reads
"pb-mgr"), and a thread with neither by its tid.

--summary prints one line per thread instead of the tables: its CPU time
and the share of its self time in each of these classes, the first that
matches a sample winning:
  lock     pthread mutex and rwlock code, the low-level lock and the futex
           calls beneath them: a library frame above the program's first
           frame names one of them; "futex" is the part of it spent in the
           kernel (the sample's PC follows a syscall instruction);
  alloc    malloc, free and the rest of the allocator, operator new and
           delete;
  syscall  any other time in the kernel: the PC follows a syscall
           instruction (sendmsg, recv, epoll_pwait2, ...);
  mem*     the resolved string functions (memcpy, memmove, memset,
           memcmp);
  other    everything else.

Symbols come from `nm` (the full symbol table where the object has one,
else its exported dynamic symbols) and program headers from `readelf`. A
PC that falls between two exported symbols of a stripped library (libc,
libstdc++) is reported as that range, "libc.so.6:[before..after]". The
one exception is the function, delimited by its .eh_frame entry, where a
string function (memcpy, memmove, memset, memcmp, strlen) resolved at run
time: those IFUNCs run in unexported variants, so that function is named
after them, "libc.so.6:memcpy/memmove".

Self counts a sample for the function its PC is in; inclusive counts it
once for every function anywhere on its stack. Each sample is weighted by
the sampling periods it stands for, and percentages are of the thread's
weighted total, which is its CPU time (user and system) while sampled.
Each table lists its 20 largest rows. When the sampler's buffer filled,
a warning on stderr says the tables cover only the start of the run.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


TOP_ROWS = 20

LOCK = re.compile(r"pthread_mutex|pthread_rwlock|__lll_lock|futex")
ALLOC = re.compile(r"\b(malloc|free|calloc|realloc|cfree|_int_malloc|_int_free|"
                   r"malloc_consolidate|operator new|operator delete)\b")
MEM = re.compile(r"\bmem(cpy|move|set|cmp)\b")


def parse_samples(path):
    period_ns, taken, kept, resolved, maps, stacks = 0, 0, 0, {}, [], []
    thread_names = {}
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("threads", "maps", "stacks"):
                section = line
                continue
            if section == "threads":
                tid, _, name = line.partition(" ")
                thread_names[int(tid)] = name
            elif section == "maps":
                maps.append(line)
            elif section == "stacks":
                fields = line.split()
                stacks.append((int(fields[0]), int(fields[1]), [int(x, 16) for x in fields[2:]]))
            elif line.startswith("period_ns "):
                period_ns = int(line.split()[1])
            elif line.startswith("samples_taken "):
                taken = int(line.split()[1])
            elif line.startswith("samples_kept "):
                kept = int(line.split()[1])
            elif line.startswith("resolved "):
                _, name, addr = line.split()
                resolved[name] = int(addr, 16)
    return period_ns, taken, kept, resolved, maps, stacks, thread_names


def parse_maps(lines):
    """Executable file mappings: (start, end, file offset, path)."""
    out = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith(("/", "[")):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        out.append((lo, hi, int(parts[2], 16), parts[5]))
    out.sort()
    return out


def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=False).stdout
    except OSError:
        return ""


def short(name):
    return re.sub(r"\(.*", "", name)


class Module:
    """Code symbols of one ELF object, by virtual address."""

    NM_LINE = re.compile(r"^([0-9a-f]+)\s+(?:([0-9a-f]+)\s+)?([tTwWiI])\s+(.*)$")
    FDE_LINE = re.compile(r"\sFDE cie=\S+ pc=([0-9a-f]+)\.\.([0-9a-f]+)")

    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)
        self.loads = []  # (p_offset, p_vaddr, p_filesz)
        for line in run(["readelf", "-lW", path]).splitlines():
            fields = line.split()
            if fields and fields[0] == "LOAD":
                self.loads.append((int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)))
        symbols = self._nm([])
        self.stripped = not symbols
        if self.stripped:
            symbols = self._nm(["-D"])
        symbols.sort()
        self.addrs = [s[0] for s in symbols]
        self.syms = symbols
        self.fdes = []  # sorted (lo, hi), read for stripped objects only
        self.fde_names = {}  # fde lo -> names resolved into it
        if self.stripped:
            text = run(["readelf", "--debug-dump=frames", "-W", path])
            self.fdes = sorted((int(m.group(1), 16), int(m.group(2), 16))
                               for m in self.FDE_LINE.finditer(text))
        self.fde_starts = [f[0] for f in self.fdes]

    def _nm(self, extra):
        """Code symbols as (address, size, name); size 0 when nm has none."""
        out = []
        text = run(["nm", "-C", "-S", "--defined-only"] + extra + [self.path])
        for line in text.splitlines():
            m = self.NM_LINE.match(line)
            if m:
                out.append((int(m.group(1), 16), int(m.group(2) or "0", 16), m.group(4)))
        return out

    def vaddr(self, file_offset):
        for p_offset, p_vaddr, p_filesz in self.loads:
            if p_offset <= file_offset < p_offset + p_filesz:
                return file_offset - p_offset + p_vaddr
        return file_offset

    def fde(self, vaddr):
        i = bisect.bisect_right(self.fde_starts, vaddr) - 1
        if i >= 0 and vaddr < self.fdes[i][1]:
            return self.fdes[i][0]
        return None

    def name_function(self, vaddr, name):
        """Names the unexported function holding vaddr (an IFUNC's target)."""
        lo = self.fde(vaddr)
        if lo is not None:
            self.fde_names.setdefault(lo, []).append(name)

    def symbol(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i >= 0:
            addr, size, name = self.syms[i]
            if vaddr < addr + size or (size == 0 and not self.stripped):
                return name
        lo = self.fde(vaddr)
        if lo in self.fde_names:
            return f"{self.name}:{'/'.join(self.fde_names[lo])}"
        before = self.syms[i][2] if i >= 0 else "start"
        after = self.syms[i + 1][2] if i + 1 < len(self.syms) else "end"
        return f"{self.name}:[{short(before)}..{short(after)}]"


class Symbolizer:
    def __init__(self, maps, resolved):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.modules = {}
        self.cache = {}
        self.files = {}
        self.syscall_cache = {}
        for name, addr in sorted(resolved.items()):
            found = self.locate(addr)
            if found is not None:
                found[0].name_function(found[1], name)

    def locate(self, pc):
        """(module, vaddr) of a run-time address, or None."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return None
        lo, _, offset, path = self.maps[i]
        if path.startswith("["):  # [vdso]: no file to read symbols from
            return None
        module = self.modules.get(path)
        if module is None:
            module = self.modules[path] = Module(path)
        return module, module.vaddr(pc - lo + offset)

    def after_syscall(self, pc):
        """True when the instruction before pc is a syscall (0f 05): a
        sample taken there was charged the kernel time of that call."""
        found = self.syscall_cache.get(pc)
        if found is None:
            found = False
            i = bisect.bisect_right(self.starts, pc) - 1
            if i >= 0 and pc < self.maps[i][1] and not self.maps[i][3].startswith("["):
                lo, _, offset, path = self.maps[i]
                data = self.files.get(path)
                if data is None:
                    try:
                        with open(path, "rb") as f:
                            data = f.read()
                    except OSError:
                        data = b""
                    self.files[path] = data
                at = pc - lo + offset
                found = at >= 2 and data[at - 2:at] == b"\x0f\x05"
            self.syscall_cache[pc] = found
        return found

    def in_library(self, pc):
        """True when pc lies in a shared object (libc, libstdc++, ...)."""
        i = bisect.bisect_right(self.starts, pc) - 1
        return i >= 0 and pc < self.maps[i][1] and ".so" in os.path.basename(self.maps[i][3])

    def name(self, pc):
        label = self.cache.get(pc)
        if label is None:
            found = self.locate(pc)
            if found is not None:
                label = found[0].symbol(found[1])
            else:
                i = bisect.bisect_right(self.starts, pc) - 1
                inside = i >= 0 and pc < self.maps[i][1]
                label = self.maps[i][3] if inside else f"?{pc:x}"
            self.cache[pc] = label
        return label


def classify(symbolizer, frames, pcs):
    """The summary class of one sample: its library frames are those above
    the program's first frame (the sampler's stack scan keeps them all)."""
    library = []
    for frame, pc in zip(frames, pcs):
        if not symbolizer.in_library(pc):
            break
        library.append(frame)
    kernel = symbolizer.after_syscall(pcs[0])
    if any(LOCK.search(f) for f in library):
        return "futex" if kernel else "lock"
    if any(ALLOC.search(f) for f in library):
        return "alloc"
    if kernel:
        return "syscall"
    if MEM.search(frames[0]):
        return "mem*"
    return "other"


def print_summary(rows, period_ns):
    """rows: (label, tid, total weight, Counter of class -> weight)."""
    print(f"{'thread':<16} {'tid':>8} {'cpu_s':>7} {'syscall':>8} {'lock':>7} "
          f"{'(futex)':>8} {'alloc':>7} {'mem*':>7} {'other':>7}")
    for label, tid, total, counts in rows:
        def pct(*names):
            return 100.0 * sum(counts[n] for n in names) / total
        print(f"{label:<16} {tid:>8} {total * period_ns / 1e9:>7.2f} {pct('syscall'):>7.1f}% "
              f"{pct('lock', 'futex'):>6.1f}% {'(' + format(pct('futex'), '.1f') + '%)':>8} "
              f"{pct('alloc'):>6.1f}% {pct('mem*'):>6.1f}% {pct('other'):>6.1f}%")


def parse_names(path):
    names = {}
    pattern = re.compile(r"^\s+(\S+)\s+tid\s+(\d+)\s")
    with open(path) as f:
        for line in f:
            m = pattern.match(line)
            if m:
                names[int(m.group(2))] = m.group(1)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", required=True)
    ap.add_argument("--names", help="perfbench stdout with its thread cpu table")
    ap.add_argument("--thread", help="report only the threads with this role or name")
    ap.add_argument("--summary", action="store_true",
                    help="one line per thread: self time by class (see above)")
    args = ap.parse_args()

    period_ns, taken, kept, resolved, maps, stacks, thread_names = parse_samples(args.samples)
    if taken > kept:
        print(f"sprof: warning: the sample buffer filled; {taken - kept} of {taken} "
              f"samples were not kept, so the tables cover only the first "
              f"{kept} samples of the run", file=sys.stderr)
    names = parse_names(args.names) if args.names else {}
    symbolizer = Symbolizer(parse_maps(maps), resolved)

    by_tid = collections.defaultdict(list)
    for tid, weight, pcs in stacks:
        by_tid[tid].append((weight, pcs))
    totals = {tid: sum(w for w, _ in samples) for tid, samples in by_tid.items()}
    summary = []
    for tid in sorted(by_tid, key=lambda t: -totals[t]):
        role = names.get(tid) or thread_names.get(tid) or f"tid {tid}"
        if args.thread and role != args.thread:
            continue
        self_counts = collections.Counter()
        incl_counts = collections.Counter()
        class_counts = collections.Counter()
        for weight, pcs in by_tid[tid]:
            # A return address points after its call; pc - 1 is inside it.
            frames = [symbolizer.name(pc if i == 0 else pc - 1) for i, pc in enumerate(pcs)]
            self_counts[frames[0]] += weight
            for frame in set(frames):
                incl_counts[frame] += weight
            if args.summary:
                class_counts[classify(symbolizer, frames, pcs)] += weight
        total = totals[tid]
        if args.summary:
            summary.append((role, tid, total, class_counts))
            continue
        print(f"== {role} (tid {tid}): {len(by_tid[tid])} samples, "
              f"{total * period_ns / 1e9:.2f} s CPU")
        for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
            print(f"  {title}")
            for frame, count in counts.most_common(TOP_ROWS):
                print(f"  {100.0 * count / total:6.1f}%  {frame}")
        print()
    if args.summary:
        print_summary(summary, period_ns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
