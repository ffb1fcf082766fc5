// Package service turns S-Net networks into long-running concurrent
// services: the step from the paper's batch experiments (feed a record set,
// drain, exit) to a deployed runtime multiplexing many independent clients,
// in the spirit of the S-Net runtime evaluations of Zaichenkov et al.
// (arXiv:1305.7167) and Poss et al. (arXiv:1306.2743).
//
// A Service holds named network definitions, each compiled once into a
// snet.Plan.  Each client session runs its chosen network's plan
// (Plan.Start, on the session's first use), streams records in with
// backpressure from the bounded stream buffers, and drains results; the
// service enforces a per-network session cap, aggregates per-network
// throughput/latency counters, and guarantees leak-free shutdown by
// cancelling every live session's run context.
//
//	svc := service.New()
//	svc.Register("inc", "increment <n>", service.Options{BufferSize: 8}, builder, nil)
//	s, _ := svc.Open("inc")
//	s.Send(ctx, snet.NewRecord().SetTag("n", 1))
//	s.CloseInput()
//	rec, _, _ := s.Recv(ctx)
//	s.Release()
//
// The HTTP binding in http.go exposes the same lifecycle over JSON; see
// cmd/snetd.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/sac"
	"repro/snet"
)

// SessionMode is ignored: every session is a run of its own.  The field and
// its two values stay declared only for the benchmark harness, which sets
// them; ROADMAP item 5(2)'s benchmark change deletes them.
type SessionMode int

// Isolated and Shared are SessionMode's two values, both ignored.
const (
	Isolated SessionMode = iota
	Shared
)

// Options configures every run (session) of one registered network.
// It is the per-network counterpart of the paper's per-experiment harness
// flags: the bounded stream buffering and the data-parallel pool become
// deployment configuration.
type Options struct {
	// SessionMode is ignored: every session is a run of its own (see the
	// SessionMode type).
	SessionMode SessionMode
	// BufferSize is the stream buffer capacity, in frames, of every
	// stream in the network instance (snet.WithBuffer).  Values < 0
	// select the runtime default (32); 0 is valid and selects fully
	// synchronous streams.
	BufferSize int
	// StreamBatch is the stream batch size B of every instance
	// (snet.WithStreamBatch): how many records a hot stream coalesces
	// into one channel synchronization.  0 keeps the runtime default;
	// 1 forces unbatched per-record handoff.  Adaptive flushing keeps
	// per-session latency flat at any B, so this is a pure throughput
	// knob for record-dense workloads.
	StreamBatch int
	// MaxSessions caps the number of concurrently open sessions of this
	// network; Open fails with ErrSessionLimit beyond it.  0 selects
	// DefaultMaxSessions; negative means unlimited.
	MaxSessions int
	// Pool is the data-parallel with-loop pool handed to the network
	// builder (the "SaC threads" of the boxes).  nil leaves the choice to
	// the builder (typically sequential).
	Pool *sac.Pool
	// BoxWorkers is the per-box invocation concurrency width W of every
	// instance (snet.WithBoxWorkers): each box node of a session's network
	// may run up to W invocations of its stateless box function at a time,
	// with output order preserved by the runtime's reorder stage, from the
	// box's first record on; 1 forces sequential boxes.  0 leaves the
	// choice to the runtime: a box runs inline until its own service time
	// exceeds the hand-off cost, then up to GOMAXPROCS at a time.
	BoxWorkers int
	// MaxSplitWidth bounds parallel-replication unfolding per run
	// (snet.WithMaxSplitWidth).  0 keeps the runtime default.
	MaxSplitWidth int
	// IdleTimeout releases sessions with no Send/Recv activity — the
	// abandoned-client guard, without which a crashed client would pin a
	// running network instance and a MaxSessions slot forever.  0 selects
	// DefaultIdleTimeout; negative disables reaping.
	IdleTimeout time.Duration
}

// DefaultMaxSessions is the session cap applied when Options.MaxSessions is
// zero: enough for heavy concurrent traffic, small enough that a stuck
// client population cannot exhaust the process (each session is a running
// network instance).
const DefaultMaxSessions = 1024

// DefaultIdleTimeout is the idle-session reaping threshold applied when
// Options.IdleTimeout is zero.
const DefaultIdleTimeout = 10 * time.Minute

func (o Options) idleTimeout() time.Duration {
	switch {
	case o.IdleTimeout == 0:
		return DefaultIdleTimeout
	case o.IdleTimeout < 0:
		return 0 // reaping disabled
	default:
		return o.IdleTimeout
	}
}

// runOptions translates Options into snet run options.
func (o Options) runOptions() []snet.Option {
	var opts []snet.Option
	if o.BufferSize >= 0 {
		opts = append(opts, snet.WithBuffer(o.BufferSize))
	}
	if o.StreamBatch > 0 {
		opts = append(opts, snet.WithStreamBatch(o.StreamBatch))
	}
	if o.BoxWorkers > 0 {
		opts = append(opts, snet.WithBoxWorkers(o.BoxWorkers))
	}
	if o.MaxSplitWidth > 0 {
		opts = append(opts, snet.WithMaxSplitWidth(o.MaxSplitWidth))
	}
	return opts
}

func (o Options) maxSessions() int {
	switch {
	case o.MaxSessions == 0:
		return DefaultMaxSessions
	case o.MaxSessions < 0:
		return int(^uint(0) >> 1) // unlimited
	default:
		return o.MaxSessions
	}
}

// Builder produces a network definition's blueprint.  It receives the
// network's options so data-parallel pools and throttles can be wired in.
// The first blueprint it returns is compiled (Network.Plan) and every session
// runs that plan; node trees are immutable, so returning a shared tree is
// correct.
type Builder func(opts Options) (snet.Node, error)

// Network is one registered network definition plus its service-level
// accounting.
type Network struct {
	name    string
	descr   string
	build   Builder
	codec   Codec
	opts    Options
	runOpts []snet.Option // opts as run options, for every Plan.Start
	svcStat *snet.Stats   // service counters: sessions, records, latency
	runStat *snet.Stats   // aggregated core runtime counters of finished runs

	mu     sync.Mutex
	active int

	// The network's compiled plan: built once from the builder, shared by
	// every session (nodes are stateless blueprints; the
	// plan's routing tables are the shared artifact sessions amortize).
	planMu   sync.Mutex
	plan     *snet.Plan
	planErr  error // compile diagnostics of the cached plan (*snet.CompileError or nil)
	planDone bool
	verify   *analysis.Report // deadlock & boundedness verdict of the cached plan
}

// Plan returns the network's compiled plan, invoking the builder and
// compiling the blueprint on first use.  A builder failure is returned (and
// retried on the next call, as Open always did); compile *type errors* do
// not fail Plan — a network that only ever failed at runtime before keeps
// serving — but are cached (PlanErr), counted under
// "net.<name>.compile.type_errors", and exposed over /api/networks.
func (n *Network) Plan() (*snet.Plan, error) {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if n.planDone {
		return n.plan, nil
	}
	root, err := n.build(n.opts)
	if err != nil {
		return nil, err
	}
	plan, cerr := snet.Compile(root)
	n.plan = plan
	n.planDone = true
	if cerr != nil {
		n.planErr = cerr
		n.svcStat.Add("compile.type_errors", int64(len(plan.TypeErrors())))
	}
	if w := len(plan.Warnings()); w > 0 {
		n.svcStat.Add("compile.warnings", int64(w))
	}
	return plan, nil
}

// buildFailed gives back the slot of a session or run whose builder failed.
func (n *Network) buildFailed(err error) error {
	n.releaseSlot()
	n.svcStat.Add("sessions.build_errors", 1)
	return fmt.Errorf("%w: network %q: %v", ErrBuild, n.name, err)
}

// PlanErr returns the compile diagnostics of the cached plan: nil when the
// network compiled cleanly (or has not been compiled yet), a
// *snet.CompileError otherwise.
func (n *Network) PlanErr() error {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	return n.planErr
}

// Verify returns the network's static deadlock & boundedness verdict
// (internal/analysis) under the default capacity assumptions, computed once
// over the cached plan and shared with /api/networks.  It returns nil if
// the builder fails.
func (n *Network) Verify() *analysis.Report {
	if _, err := n.Plan(); err != nil {
		return nil
	}
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if n.verify == nil && n.plan != nil {
		n.verify = analysis.Analyze(n.plan)
	}
	return n.verify
}

// Name returns the network's registered name.
func (n *Network) Name() string { return n.name }

// Description returns the human-readable summary given at registration.
func (n *Network) Description() string { return n.descr }

// Options returns the network's per-run options.
func (n *Network) Options() Options { return n.opts }

// Codec returns the network's record codec.
func (n *Network) Codec() Codec { return n.codec }

// acquire claims a session slot, failing at the cap.
func (n *Network) acquire() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.active >= n.opts.maxSessions() {
		n.svcStat.Add("sessions.rejected", 1)
		return fmt.Errorf("%w: network %q at %d sessions", ErrSessionLimit, n.name, n.active)
	}
	n.active++
	n.svcStat.Add("sessions.opened", 1)
	n.svcStat.SetMax("sessions.active", int64(n.active))
	return nil
}

// releaseSlot undoes one acquire, keeping opened-closed consistent with
// active on every path (including builder failures).
func (n *Network) releaseSlot() {
	n.mu.Lock()
	n.active--
	n.mu.Unlock()
	n.svcStat.Add("sessions.closed", 1)
}

// release returns the slot of a session or one-shot run held since opened,
// folding in the run's own statistics, if it ran.
func (n *Network) release(opened time.Time, rs *snet.Stats) {
	n.releaseSlot()
	lifetime := time.Since(opened)
	n.svcStat.Add("latency.session_ns", lifetime.Nanoseconds())
	n.svcStat.SetMax("latency.session_ns", lifetime.Nanoseconds())
	if rs != nil {
		n.runStat.Merge(rs)
	}
}

// Errors reported by the service layer.
var (
	ErrSessionLimit   = errors.New("service: session limit reached")
	ErrUnknownNetwork = errors.New("service: unknown network")
	ErrUnknownSession = errors.New("service: unknown session")
	ErrShutdown       = errors.New("service: shut down")
	// ErrBuild marks a network builder failure — a server-side
	// configuration fault, not a client error.
	ErrBuild = errors.New("service: network build failed")
)

// Service is a registry of named networks and the live sessions running
// them.  All methods are safe for concurrent use.
type Service struct {
	mu       sync.Mutex
	nets     map[string]*Network
	sessions map[string]*Session
	seq      uint64
	down     bool
	started  time.Time

	reapEvery  time.Duration // idle-session sweep interval
	reaping    bool          // reaper goroutine running
	stopReaper chan struct{}
	opening    sync.WaitGroup  // Opens in flight, so Shutdown can wait for stragglers
	runs       context.Context // every /api/run's, cancelled by Shutdown (cause ErrShutdown)
	stopRuns   context.CancelCauseFunc
}

// New returns an empty service.
func New() *Service {
	s := &Service{
		nets:       map[string]*Network{},
		sessions:   map[string]*Session{},
		started:    time.Now(),
		reapEvery:  30 * time.Second,
		stopReaper: make(chan struct{}),
	}
	s.runs, s.stopRuns = context.WithCancelCause(context.Background())
	return s
}

// startReaperLocked launches the idle-session sweeper on first use; the
// caller holds s.mu.
func (s *Service) startReaperLocked() {
	if s.reaping || s.down {
		return
	}
	s.reaping = true
	go func() {
		t := time.NewTicker(s.reapEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stopReaper:
				return
			case <-t.C:
				s.reapIdle()
			}
		}
	}()
}

// reapIdle releases every session whose network has an idle timeout and
// that has seen no Send/Recv activity for longer than it.  A session
// observed with a call in flight (a client blocked on backpressure or a
// long result poll) is skipped; a call that starts in the instant between
// the final check and the release loses the race and fails with
// ErrCancelled — the same outcome as racing an explicit concurrent
// Release, which the client-facing layers already surface (HTTP 410).
func (s *Service) reapIdle() {
	s.mu.Lock()
	var victims []*Session
	for _, sess := range s.sessions {
		if limit := sess.net.opts.idleTimeout(); limit > 0 && sess.reapable(limit) {
			victims = append(victims, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		if !sess.reapable(sess.net.opts.idleTimeout()) {
			continue // woke up since the sweep snapshot
		}
		sess.net.svcStat.Add("sessions.reaped", 1)
		sess.Release()
	}
}

// Register adds a named network definition.  A nil codec selects the
// generic tag/string-field codec.  Registering a duplicate name panics:
// network registration is deployment configuration, not request handling.
func (s *Service) Register(name, description string, opts Options, build Builder, codec Codec) *Network {
	if build == nil {
		panic("service: Register with nil builder")
	}
	if codec == nil {
		codec = GenericCodec{}
	}
	n := &Network{
		name:    name,
		descr:   description,
		build:   build,
		codec:   codec,
		opts:    opts,
		runOpts: opts.runOptions(),
		svcStat: snet.NewStats(),
		runStat: snet.NewStats(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.nets[name]; dup {
		panic(fmt.Sprintf("service: duplicate network %q", name))
	}
	s.nets[name] = n
	return n
}

// Network looks up a registered network.
func (s *Service) Network(name string) (*Network, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNetwork, name)
	}
	return n, nil
}

// Networks returns all registered networks sorted by name.
func (s *Service) Networks() []*Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Network, 0, len(s.nets))
	for _, n := range s.nets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Session looks up a live session by id.
func (s *Service) Session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return sess, nil
}

// SessionCount returns the number of live sessions across all networks.
func (s *Service) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// Stats returns a nested snapshot of every network's service counters
// ("net.<name>.<metric>"), aggregated core runtime counters
// ("run.<name>.<metric>", of finished runs), and service-wide gauges.
func (s *Service) Stats() map[string]int64 {
	out := map[string]int64{
		"service.uptime_ns":       s.Uptime().Nanoseconds(),
		"service.sessions.active": int64(s.SessionCount()),
	}
	for _, n := range s.Networks() {
		for k, v := range n.svcStat.Snapshot() {
			out["net."+n.name+"."+k] = v
		}
		for k, v := range n.runStat.Snapshot() {
			out["run."+n.name+"."+k] = v
		}
	}
	return out
}

// Quiesce refuses further Opens while leaving live sessions running — the
// first phase of graceful shutdown (drain, then Shutdown).
func (s *Service) Quiesce() {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
}

// DrainSessions blocks until every live session has been released (clients
// finishing naturally, or the idle reaper collecting them) or ctx expires;
// it reports whether the service drained fully.  Call Quiesce first so no
// new sessions arrive behind the drain.
func (s *Service) DrainSessions(ctx context.Context) bool {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if s.SessionCount() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return s.SessionCount() == 0
		case <-t.C:
		}
	}
}

// Shutdown cancels every live session and one-shot run, waits for the
// sessions' networks to wind down, and refuses further Opens and runs.  It is idempotent.
func (s *Service) Shutdown() {
	s.mu.Lock()
	s.down = true
	s.stopRuns(ErrShutdown)
	if s.reaping {
		s.reaping = false
		close(s.stopReaper)
	}
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.Release()
	}
	// An Open racing this Shutdown may have claimed its slot before we
	// snapshotted: it self-releases on its second down-check, and we wait
	// for it here so the wind-down guarantee covers stragglers too.
	s.opening.Wait()
}
