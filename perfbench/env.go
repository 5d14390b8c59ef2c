package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// recordEnv captures what makes numbers from two hosts incomparable:
// CPU count, Go version, the journal's filesystem and whether it is
// fsynced (see walSet.factory), and how coarsely this host's timers
// honour a 200 µs sleep — injected network latency is quantized to that
// granularity.
func recordEnv(journalDir string) map[string]any {
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"journal_fs":         fsType(journalDir),
		"journal_fsync":      false,
		"sleep_200us_p50_us": sleepGranularity(200*time.Microsecond, 25),
	}
}

// sleepGranularity is the median wall time, in µs, of n timer waits of
// d — the mechanism the fabric injects latency with.
func sleepGranularity(d time.Duration, n int) float64 {
	var us []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		t := time.NewTimer(d)
		<-t.C
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us)
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
