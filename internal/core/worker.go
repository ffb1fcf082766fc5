package core

import "sync"

// The run's one source of goroutines.  Every goroutine internal/core starts —
// a part, a merger, a box worker and its releaser, a resumed branch, a
// drainer — is a worker of its run, taken from spawn.  A worker whose function
// has returned parks, and the run's next spawn hands it its function instead
// of starting a goroutine, so a star stage that unfolds after another has
// ended runs on that stage's goroutine, stack already grown.  A run's workers
// end with it (end): a one-shot run's at its cut, a started run's once its
// output has closed.  They are the one resource manager of SVP (van Tol &
// Koivisto, arXiv:1104.3876) for the record plane; no budget bounds them yet.

// maxIdleWorkers is how many workers a run keeps parked; one that finds as
// many parked ends, so a burst of replicas does not hold its stacks until the
// run ends.  A 64×64 wavefront run, whose edge chains unfold half its stages
// at once, starts about 26 workers for its 129 functions with no cap and as
// many with this one (25.6 over 40 runs; 29.8 at 4).
const maxIdleWorkers = 8

// workers are a run's parked goroutines and the functions handed to them.
type workers struct {
	mu    sync.Mutex
	wake  sync.Cond // on mu: a function is queued, or the run has ended
	idle  int       // parked workers
	tasks fifo[func()]
	ended bool
}

// task is a function for a worker of env.
type task struct {
	env *runEnv
	fn  func()
}

// fresh carries a new worker its first task: a goroutine started with nothing
// of its own costs no allocation, so a run that recycles nothing allocates
// what it did when each function had a goroutine started for it.  Every spawn
// that sends starts a worker, so every task sent is taken; the buffer lets a
// burst of spawns (a split unfolding its replicas) go on without waiting for
// each new worker to be scheduled.
var fresh = make(chan task, 1024)

// spawn runs fn on a worker of the run: a parked one if one is free, else a
// new one.
func (e *runEnv) spawn(fn func()) {
	w := &e.workers
	w.mu.Lock()
	if w.idle > w.tasks.len() {
		w.tasks.push(fn)
		w.mu.Unlock()
		w.wake.Signal()
		return
	}
	w.mu.Unlock()
	fresh <- task{e, fn}
	go work()
}

// work is one worker: its first function, then whatever its run hands it.
func work() {
	t := <-fresh
	for fn := t.fn; fn != nil; fn = t.env.park() {
		fn()
	}
}

// park waits for the run's next function: nil once the run has ended, or at
// once if maxIdleWorkers are parked already.
func (e *runEnv) park() func() {
	w := &e.workers
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wake.L = &w.mu // a run's zero workers are ready to use
	w.idle++
	for w.tasks.len() == 0 && !w.ended && w.idle <= maxIdleWorkers {
		w.wake.Wait()
	}
	w.idle--
	if w.tasks.len() == 0 {
		return nil
	}
	return w.tasks.pop()
}

// end ends the run's workers: the parked ones now, the busy ones once their
// function returns.
func (e *runEnv) end() {
	e.workers.mu.Lock()
	e.workers.ended = true
	e.workers.mu.Unlock()
	e.workers.wake.Broadcast()
}
