package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// system is one freshly set-up instance of the program under test: the
// library with its catalogs, a routed cluster, or restarted engines over a
// reopened store. verify must be safe for concurrent use by the
// workload's clients.
type system interface {
	verify(p pair) outcome
	close() error
}

// pass is one closed-loop run over the whole pair list.
type pass struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64    // bytes allocated during the pass
	latency []float64 // per pair, ms, index-aligned with the pair list
	outs    []outcome // per pair
	heap    uint64    // live heap at the end, before teardown, minus the heap before set-up
	setup   []float64 // set-up durations before the pass, s
	digest  string    // verdict digest of outs
}

// closedLoop verifies every pair with the given number of clients, each
// sending its next pair only once the previous verdict is back. Clients
// take pairs in list order from a shared cursor.
func closedLoop(pairs []pair, clients int, verify func(i int) outcome) *pass {
	ps := &pass{latency: make([]float64, len(pairs)), outs: make([]outcome, len(pairs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, alloc0 := cpuTime(), totalAlloc()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pairs) {
					return
				}
				t := time.Now()
				o := verify(i)
				ps.latency[i] = float64(time.Since(t)) / float64(time.Millisecond)
				ps.outs[i] = o
			}
		}()
	}
	wg.Wait()
	ps.wall = time.Since(start)
	ps.cpu = cpuTime() - cpu0
	ps.alloc = totalAlloc() - alloc0
	return ps
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return heapAlloc()
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A pass sets its system up at least setupReps times and until the
// set-ups have taken setupBudget, keeping the last instance and tearing the
// others down at once. Set-up takes from microseconds (building catalogs)
// to milliseconds (reopening a store), so one sample per pass would leave
// setup_s at the mercy of a single scheduler hiccup; the median of many is
// steady.
const (
	setupReps   = 5
	setupBudget = 5 * time.Millisecond
	maxSetups   = 1000
)

// freshSystem sets a system up repeatedly, keeping the last, and returns
// it with every set-up duration in seconds.
func freshSystem(setup func() (system, error)) (system, []float64, error) {
	var sys system
	var took []float64
	var total time.Duration
	for len(took) < setupReps || (total < setupBudget && len(took) < maxSetups) {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		total += d
		took = append(took, d.Seconds())
		sys = s
	}
	return sys, took, nil
}

// measuredPass sets a fresh system up, runs one closed-loop pass over it,
// takes the live heap it holds, lets inspect (when non-nil) read the
// system's counters, and tears it down. The heap is measured against a
// collection before set-up, so what the benchmark itself keeps across
// passes does not count.
func measuredPass(pairs []pair, clients int, setup func() (system, error), inspect func(system) error) (*pass, error) {
	// Return every free page to the OS first, as a fresh process starts:
	// otherwise whether the background scavenger got to the previous
	// pass's pages decides if set-up and the pass fault them in again.
	debug.FreeOSMemory()
	base := heapAlloc()
	sys, took, err := freshSystem(setup)
	if err != nil {
		return nil, err
	}
	ps := closedLoop(pairs, clients, func(i int) outcome { return sys.verify(pairs[i]) })
	if h := liveHeap(); h > base {
		ps.heap = h - base
	}
	ps.setup = took
	if inspect != nil {
		if err := inspect(sys); err != nil {
			sys.close()
			return nil, err
		}
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	return ps, nil
}
