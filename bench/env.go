package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// readProc returns a /proc file's trimmed content, or "?" where the kernel
// does not offer it.
func readProc(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "?"
	}
	return strings.TrimSpace(string(b))
}

// timeWaitCount returns the kernel's count of TIME_WAIT sockets, or -1 when
// it cannot be read.
func timeWaitCount() int {
	for _, line := range strings.Split(readProc("/proc/net/sockstat"), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				if n, err := strconv.Atoi(f[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// printEnv writes the environment header: everything about the machine that
// decides what the numbers below it mean.
func printEnv(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), readProc("/proc/sys/kernel/osrelease"))
	fmt.Fprintf(w, "env: traffic crosses the host loopback (127.0.0.1), generator and system in one process\n")
	fmt.Fprintf(w, "env: tcp_tw_reuse=%s ip_local_port_range=%q tcp_max_tw_buckets=%s time_wait_now=%d\n",
		readProc("/proc/sys/net/ipv4/tcp_tw_reuse"),
		strings.Join(strings.Fields(readProc("/proc/sys/net/ipv4/ip_local_port_range")), "-"),
		readProc("/proc/sys/net/ipv4/tcp_max_tw_buckets"), timeWaitCount())
}
