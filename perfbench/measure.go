package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the CPU time the hypervisor has stolen from this
// machine's CPUs, summed over them: the steal column of /proc/stat, in
// units of 10 ms. It reads 0 where the kernel does not report it.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(n) * 10 * time.Millisecond
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative number of bytes allocated on the heap.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapWatch samples the heap in use — the bytes of live objects and of
// dead ones the GC has not freed yet — and keeps the highest value seen.
type heapWatch struct {
	stopc chan struct{}
	done  chan uint64
}

// heapSampleEvery is the heap sampling period.
const heapSampleEvery = 2 * time.Millisecond

func heapInUse() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

func startHeapWatch() *heapWatch {
	h := &heapWatch{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		var peak uint64
		for {
			peak = max(peak, heapInUse())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak heap in use, in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
