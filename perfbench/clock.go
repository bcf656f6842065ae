package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what an op took: wall-clock time, and CPU time of the whole
// process (client, server, prover, ingest workers and GC alike).
type cost struct {
	wall, cpu time.Duration
}

func (c cost) add(d cost) cost { return cost{c.wall + d.wall, c.cpu + d.cpu} }

// clock is an op's start on both clocks.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{time.Now(), cpuTime()} }

// cost is what the op has taken since the clock started.
func (c clock) cost() cost { return cost{time.Since(c.wall), cpuTime() - c.cpu} }

// cpuTime is the user plus system time the process has run. On Linux
// with paravirtual steal accounting the kernel leaves out the time the
// hypervisor kept the vCPUs from running (steal), which wall time
// includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refCalibration is the CPU time of one calibration pass on the
// reference core: a 2.1 GHz Xeon vCPU (SHA-NI) of a quiet host.
const refCalibration = 850 * time.Microsecond

var calibrationInput = make([]byte, 1<<20)

// calibration is the CPU time of one fixed pass of work the program
// never changes, SHA-256 over 1 MiB: the benchmark runs it after every
// op and fixture build, outside the timed region, to follow how fast
// the host lets the vCPUs run at that moment.
func calibration() time.Duration {
	c := startClock()
	sha256.Sum256(calibrationInput)
	return c.cost().cpu
}

// stealTime is the time the hypervisor has kept this machine's vCPUs
// from running, summed over them, read from /proc/stat (USER_HZ = 100
// ticks per second); false where the kernel does not report it.
func stealTime() (time.Duration, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// stealShare is the share of the machine's vCPU time stolen by the
// host since start, or -1 where it is not reported.
func stealShare(start time.Duration, since time.Time) float64 {
	now, ok := stealTime()
	if !ok {
		return -1
	}
	return (now - start).Seconds() / (time.Since(since).Seconds() * float64(runtime.NumCPU()))
}
