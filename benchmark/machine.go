package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// A machineStamp identifies the host a result was measured on. Compare
// mode refuses to set results with different stamps side by side: a
// wall-clock number means nothing on another machine.
type machineStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func stampMachine() machineStamp {
	return machineStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// cpuSeconds is the user+system CPU time consumed so far by this process
// and by every child it has reaped (the remote backend's node daemons are
// reaped at the end of their cell, so a per-cell delta includes them).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // cannot fail for these two constants
		}
		total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// reapedMaxRSSKB is the peak resident set of the largest child this
// process has reaped, in KiB (0 when it never had one).
func reapedMaxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// pinToOneCPU confines this process to the first CPU it is allowed on:
// every thread it has now, hence every thread and every child process it
// creates from here on. Call it before starting work, while the runtime's
// few threads are all there is.
func pinToOneCPU() error {
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for i, word := range mask {
		if word != 0 {
			mask = [16]uint64{}
			mask[i] = 1 << bits.TrailingZeros64(word)
			break
		}
	}
	// Twice, so a thread born during the first sweep is caught by the second.
	for sweep := 0; sweep < 2; sweep++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since the directory was read.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
