package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/snet"
)

// result is what one run of one workload reports.
type result struct {
	attempted int
	failed    int
	metrics   *metrics
	// rawPerS is the plain ops_per_s of each measured slice (operations over
	// wall-clock seconds) and slowness the machine's slowness while it ran:
	// printed so that what the reference kernel took out can be seen, and the
	// noise inside a run told from the noise between runs.
	rawPerS  []float64
	slowness []float64
	// setups is setup_s of each set-up of the run, in reference seconds.
	setups []float64
	// steal is the share of the machine's CPU time the hypervisor kept from
	// it during the slices, -1 when it cannot be told.
	steal float64
}

// hygiene is the state a workload must leave the process in: the record
// arena's ledger and the goroutine count as they were before it.
type hygiene struct {
	goroutines int
	live       int64
}

func takeHygiene() hygiene {
	return hygiene{goroutines: runtime.NumGoroutine(), live: snet.PoolStats().Live()}
}

// check waits for the goroutines a teardown set unwinding and reports what
// did not return to the baseline.
func (h hygiene) check() error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > h.goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var err error
	if g := runtime.NumGoroutine(); g > h.goroutines {
		err = fmt.Errorf("%d goroutines after teardown, %d before set-up", g, h.goroutines)
	}
	if d := snet.PoolStats().Live() - h.live; d != 0 {
		err = errors.Join(err, fmt.Errorf("record arena ledger off by %d live records after teardown", d))
	}
	return err
}

// teardown closes an instance and checks that nothing leaked.
func teardown(inst instance, base hygiene) error {
	return errors.Join(inst.close(), base.check())
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostTicks reads the machine's CPU time from /proc/stat: the ticks the
// hypervisor ran something else while this machine wanted the CPU, and all
// ticks.  On a shared virtual machine that share decides what a run is worth:
// the timing metrics of a run with more than a few percent of it measure the
// neighbours.
func hostTicks() (steal, total float64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the stolen share of the CPU time between two readings.
func stealShare(steal0, total0 float64) float64 {
	steal1, total1, ok := hostTicks()
	if !ok || total1 <= total0 {
		return -1
	}
	return (steal1 - steal0) / (total1 - total0)
}

// setUp sets the workload up and warms it with one slice, which is part of
// set-up: caches fill and lazy initialisation finishes before anything is
// timed.
func setUp(w *workload, seed int64, ops int) (inst instance, attempted, failed int, err error) {
	inst, err = w.setup(seed, ops)
	if err != nil {
		return nil, 0, 0, err
	}
	failed, _ = inst.slice(0, ops)
	return inst, ops, failed, nil
}

// runEndToEnd is an untraced run: set-up (several times, for a steady
// setup_s), then the measured slices.  Every timing is the median over the
// slices, each slice in reference seconds (reference.go); allocs_per_op is
// the median of the plain counts.  Nothing in it comes from a traced run.
func runEndToEnd(w *workload, seed int64, seconds float64) (*result, error) {
	return measure(w, seed, w.opsFor(seconds, w.sliceOps), maxSetups, slices, time.Duration(seconds*float64(time.Second)))
}

// overrun is how far past --seconds the measured slices may run before the
// rest of them are dropped.  Slices hold a fixed number of operations, so a
// machine slower than the one the sizes were fixed on takes as much longer;
// the driver's time cap does not stretch.
const overrun = 1.25

// minSlices are measured whatever the time.
const minSlices = 21

// measure sets the workload up (at most nSetups times, see minSetups) and
// measures nSlices slices of ops operations on the last set-up, fewer (at
// least minSlices) once they have taken longer than overrun times seconds
// together.  The machine's speed is read before and after every set-up and
// every slice.
func measure(w *workload, seed int64, ops, nSetups, nSlices int, seconds time.Duration) (*result, error) {
	res := &result{metrics: newMetrics(endToEnd)}
	base := takeHygiene()
	limit := time.Duration(overrun * float64(seconds))
	machine := newGauge()

	var inst instance
	var setupS []float64
	began := time.Now()
	for i := 0; i < nSetups && (i < minSetups || time.Since(began) < seconds/4); i++ {
		if inst != nil {
			if err := teardown(inst, base); err != nil {
				return nil, err
			}
		}
		var err error
		var attempted, failed int
		var took time.Duration
		slow := machine.around(func() {
			t0 := time.Now()
			inst, attempted, failed, err = setUp(w, seed, ops)
			took = time.Since(t0)
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds()/slow)
		res.attempted += attempted
		res.failed += failed
	}

	var perS, p50, allocs, cpu []float64
	var m0, m1 runtime.MemStats
	steal0, total0, _ := hostTicks()
	began = time.Now()
	for k := 0; k < nSlices && (k < minSlices || time.Since(began) < limit); k++ {
		var failed int
		var lat []int64
		var dur, cpuS float64
		slow := machine.around(func() {
			runtime.ReadMemStats(&m0)
			c0 := cpuSeconds()
			t0 := time.Now()
			failed, lat = inst.slice(k, ops)
			dur = time.Since(t0).Seconds()
			cpuS = cpuSeconds() - c0
			runtime.ReadMemStats(&m1)
		})
		if len(lat) == 0 {
			return nil, fmt.Errorf("slice %d returned no latency samples", k)
		}
		res.attempted += ops
		res.failed += failed
		res.rawPerS = append(res.rawPerS, float64(ops)/dur)
		res.slowness = append(res.slowness, slow)
		perS = append(perS, float64(ops)/dur*slow)
		p50 = append(p50, float64(percentileNs(lat, 50))/1e6/slow)
		cpu = append(cpu, cpuS/float64(ops)*1000/slow)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	if err := teardown(inst, base); err != nil {
		return nil, err
	}

	res.setups = setupS
	res.steal = stealShare(steal0, total0)
	m := res.metrics
	m.set("setup_s", median(setupS))
	m.set("ops_per_s", median(perS))
	m.set("op_p50_ms", median(p50))
	m.set("allocs_per_op", median(allocs))
	m.set("cpu_s_per_kop", median(cpu))
	return res, nil
}
