package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The machine this benchmark runs on is a few virtual processors of a shared
// host, and its speed changes with what the neighbours do: by a few percent
// from second to second and by 20-40% for minutes at a time, little of it
// showing as steal.  Nothing taken over the slices of one run undoes a phase
// that outlasts the run: the driver that checks this benchmark found
// ops_per_s of the same code 10-22% apart (interquartile, ten runs) on all
// six workloads.  So every timing is put beside two reference kernels that
// ran on the same machine within the same half second — fixed pieces of work
// in the benchmark's own files, which no change to the program can touch —
// and reported in reference seconds: seconds of a machine on which the
// kernels take their nominal time.  README.md, "Reference seconds", has the
// runs this was fixed on: 14 per workload across quiet and busy phases, plain
// ops_per_s 17-28% apart, in reference seconds 3-8%.

const (
	// computeSteps is the work of one burst of the compute kernel on each
	// processor, handoffMessages that of one burst of the hand-off kernel.
	computeSteps    = 800_000
	handoffMessages = 20_000
	// A reading of the machine's speed makes computeBursts bursts of the one
	// and handoffBursts of the other (about 15 ms together).
	computeBursts = 5
	handoffBursts = 3
	// kernelNominal is the time of a burst of either kernel on the undisturbed
	// 2-core machine the slice sizes were fixed on.  It only sets the unit:
	// there, a reference second is a second.
	kernelNominal = 1650 * time.Microsecond
)

var (
	computeBufs [][]uint64 // one 256 KiB buffer per processor
	kernelSink  uint64
	kernelMu    sync.Mutex
)

// computeBurst is the compute kernel: every processor runs computeSteps steps
// of a shift-register generator with a read-modify-write into a buffer the
// size of a second-level cache, all at once.  It slows down as the virtual
// processors get a smaller share of a physical one.
func computeBurst() time.Duration {
	n := runtime.GOMAXPROCS(0)
	for len(computeBufs) < n {
		computeBufs = append(computeBufs, make([]uint64, 1<<15))
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, buf := range computeBufs[:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := 0; i < computeSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[x&uint64(len(buf)-1)] += x
			}
			kernelMu.Lock()
			kernelSink += x
			kernelMu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// handoffObj is what the hand-off kernel's producer allocates, one a message.
type handoffObj struct {
	a, b uint64
	_    [6]uint64
}

// handoffBurst is the hand-off kernel: a producer allocates handoffMessages
// small objects and hands them over a buffered channel to a consumer goroutine
// that reads them.  Two goroutines that wait for each other lose more than
// their share when either one's processor is taken away, so this kernel slows
// down more than the compute kernel does; the workloads, which are goroutines
// handing records to each other around box computations, lie between the two.
func handoffBurst() time.Duration {
	ch := make(chan *handoffObj, 64)
	done := make(chan uint64)
	t0 := time.Now()
	go func() {
		var s uint64
		for o := range ch {
			s += o.a + o.b
		}
		done <- s
	}()
	for i := 0; i < handoffMessages; i++ {
		ch <- &handoffObj{a: uint64(i), b: 1}
	}
	close(ch)
	kernelSink += <-done
	return time.Since(t0)
}

// slowness reads the machine's speed now: the geometric mean of the two
// kernels' times over their nominal time, 1 on the quiet machine the constant
// was fixed on and above 1 while the machine is slower.  The compute kernel
// counts with the median of its bursts, the hand-off kernel with its fastest
// one: a burst of it that the garbage collector ran into, or that found the
// two goroutines on one processor, says nothing about the machine.
func slowness() float64 {
	compute := make([]float64, computeBursts)
	for i := range compute {
		compute[i] = float64(computeBurst())
	}
	handoff := handoffBurst()
	for i := 1; i < handoffBursts; i++ {
		handoff = min(handoff, handoffBurst())
	}
	return math.Sqrt(median(compute) * float64(handoff) / (float64(kernelNominal) * float64(kernelNominal)))
}

// gauge reads the machine's speed around pieces of work that follow one
// another: the reading after one piece is the reading before the next.
type gauge struct{ last float64 }

func newGauge() *gauge { return &gauge{last: slowness()} }

// around runs f and returns the machine's slowness while it ran: the mean of
// the readings before and after it.
func (g *gauge) around(f func()) float64 {
	before := g.last
	f()
	g.last = slowness()
	return (before + g.last) / 2
}
