package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is the process's cumulative CPU time, allocation count and GC
// pause at one instant; differences between two samples attribute a phase.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procSample{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: m.Mallocs, gcPause: time.Duration(m.PauseTotalNs)}
}

// setProcess reports what the whole process (daemon and load generator
// together) spent per operation between two samples.
func (e *env) setProcess(a, b procSample, ops int) {
	if ops == 0 {
		return
	}
	e.set("process.cpu_ms_per_op", float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(ops), ops)
	e.set("process.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), ops)
	e.set("process.gc_pause_ms", float64(b.gcPause-a.gcPause)/float64(time.Millisecond), 0)
}
