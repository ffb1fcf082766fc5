// Command snetd serves S-Net networks to concurrent clients over
// HTTP/JSON — the paper's batch case study deployed as a long-running
// service.  It registers the three sudoku solver networks of Figures 1–3
// (records carry 81-character boards) and, optionally, every net defined in
// a textual .snet program bound against the demo box registry.
//
// Usage:
//
//	snetd [-addr :8080] [-workers w] [-grain g] [-box-workers W]
//	      [-buffer n] [-stream-batch B] [-max-sessions n]
//	      [-session-mode isolated|shared] [-idle-timeout d]
//	      [-drain-timeout d] [-throttle m] [-level L]
//	      [-det] [-snet file.snet]
//	snetd -demo 50       # in-process load demo: 50 concurrent sessions
//
// Session modes: "isolated" (default) starts one network instance per
// session; "shared" multiplexes every session of a network over one warm
// instance via indexed replication over a reserved session tag, so opening
// a session is a map insert (see snet/service and DESIGN.md §8).
//
// On SIGTERM/SIGINT snetd shuts down gracefully: new session opens are
// refused immediately, live sessions get -drain-timeout to finish, then
// everything left is cancelled.
//
// Wire protocol (see snet/service):
//
//	POST /api/sessions                  {"net":"fig1"}
//	POST /api/sessions/{id}/records     {"records":[{"fields":{"board":"..81 chars.."}}],"close":true}
//	GET  /api/sessions/{id}/results     ?wait=10s
//	DELETE /api/sessions/{id}
//	POST /api/run                       one-shot open/feed/drain/release
//	GET  /api/networks | /api/stats | /api/healthz
//
// Example:
//
//	snetd &
//	curl -s localhost:8080/api/run -d '{"net":"fig2","wait":"10s","records":[
//	  {"fields":{"board":"53..7....6..195....98....6.8...6...34..8.3..17...2...6.6....28....419..5....8..79"}}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/sac"
	"repro/snet/service"
)

// config collects the deployment knobs shared by serve and demo mode.
type config struct {
	workers       int                 // with-loop pool width inside the boxes
	grain         int                 // with-loop minimum chunk size (0: sched default)
	boxWorkers    int                 // concurrent invocations per box node (0: the runtime chooses)
	buffer        int                 // stream buffer capacity (frames) per network instance
	streamBatch   int                 // stream batch size B (0: runtime default)
	maxSessions   int                 // per-network concurrent session cap
	sessionMode   service.SessionMode // isolated: instance per session; shared: warm engine
	idleTimeout   time.Duration       // abandoned-session reaping threshold
	drainTimeout  time.Duration       // graceful-shutdown session drain deadline
	throttle      int                 // fig3 parallel-width throttle m
	level         int                 // fig3 serial-replication exit level L
	det           bool
	allowDeadlock bool // serve .snet nets the verifier flags as deadlock-positive
	snetFile      string
}

// pool builds the with-loop pool from the worker and grain flags
// (grain < 1 selects the sched default).
func (cfg config) pool() *sac.Pool {
	return sac.NewPoolWithGrain(cfg.workers, cfg.grain)
}

// newService builds the service with the built-in sudoku networks and any
// textual networks from cfg.snetFile.
func newService(cfg config) (*service.Service, error) {
	svc := service.New()
	opts := service.Options{
		BufferSize:  cfg.buffer,
		StreamBatch: cfg.streamBatch,
		BoxWorkers:  cfg.boxWorkers,
		MaxSessions: cfg.maxSessions,
		SessionMode: cfg.sessionMode,
		IdleTimeout: cfg.idleTimeout,
		Pool:        cfg.pool(),
	}
	registerSudokuNets(svc, opts, cfg)
	registerWorkloadNets(svc, opts)
	if cfg.snetFile != "" {
		if err := registerLangNets(svc, opts, cfg.snetFile, cfg.allowDeadlock); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// serve binds the service to addr and runs until a signal arrives on stop,
// then shuts down gracefully: Opens are refused at once, live sessions get
// the drain deadline to finish over the still-open HTTP surface, and
// whatever remains is cancelled.  If ready is non-nil it receives the bound
// address (the test hook for -addr :0).
func serve(svc *service.Service, addr string, stop <-chan os.Signal,
	drain time.Duration, ready chan<- string, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(out, "snetd: serving %d networks on %s\n", len(svc.Networks()), ln.Addr())
		for _, n := range svc.Networks() {
			fmt.Fprintf(out, "  %-12s [%s] %s\n", n.Name(), n.Options().SessionMode, n.Description())
		}
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-errc:
		svc.Shutdown()
		return err
	case sig := <-stop:
		fmt.Fprintf(out, "snetd: %v: refusing new sessions, draining (deadline %v)\n", sig, drain)
	}
	svc.Quiesce() // new opens fail with 503 while live sessions keep their HTTP surface
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	drained := svc.DrainSessions(ctx)
	cancel()
	if drained {
		fmt.Fprintln(out, "snetd: all sessions drained")
	} else {
		fmt.Fprintf(out, "snetd: drain deadline passed with %d live sessions; cancelling\n",
			svc.SessionCount())
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = srv.Shutdown(shutCtx) // stop the HTTP surface
	svc.Shutdown()            // cancel stragglers, wind down instances and warm engines
	fmt.Fprintln(out, "snetd: shut down")
	return nil
}

func main() {
	var (
		addr = flag.String("addr", ":8080", "listen address")
		demo = flag.Int("demo", 0, "run an in-process demo with this many concurrent sessions, then exit")
		mode = flag.String("session-mode", "isolated", "session mode: isolated (instance per session) or shared (one warm engine per network)")
		cfg  config
	)
	flag.IntVar(&cfg.workers, "workers", 1, "data-parallel with-loop workers per box ('SaC threads')")
	flag.IntVar(&cfg.grain, "grain", 0, "with-loop minimum chunk size per worker (0: sched default)")
	flag.IntVar(&cfg.boxWorkers, "box-workers", 0, "concurrent invocations per box node, order-preserving (0: auto — inline until a box's own service time exceeds the hand-off cost, then up to GOMAXPROCS; 1: sequential)")
	flag.IntVar(&cfg.buffer, "buffer", 32, "stream buffer capacity (frames) per network instance")
	flag.IntVar(&cfg.streamBatch, "stream-batch", 0, "records coalesced per stream synchronization, adaptive flush (0: runtime default, 1: unbatched)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 0, "concurrent sessions per network (0: default 1024, <0: unlimited)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "release sessions idle this long (0: default 10m, <0: never)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown: how long live sessions get to finish after SIGTERM")
	flag.IntVar(&cfg.throttle, "throttle", 4, "fig3: parallel-width throttle m in {<k>}->{<k>=<k>%m}")
	flag.IntVar(&cfg.level, "level", 40, "fig3: serial-replication exit level L")
	flag.BoolVar(&cfg.det, "det", false, "use deterministic combinator variants (|, *, !)")
	flag.BoolVar(&cfg.allowDeadlock, "allow-deadlock", false, "serve -snet nets the static verifier flags as deadlock-positive (refused by default)")
	flag.StringVar(&cfg.snetFile, "snet", "", "also serve every net of this textual S-Net program (demo boxes)")
	flag.Parse()

	var err error
	if cfg.sessionMode, err = service.ParseSessionMode(*mode); err != nil {
		fatal(err)
	}
	svc, err := newService(cfg)
	if err != nil {
		fatal(err)
	}
	if *demo > 0 {
		if err := runDemo(svc, *demo, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(svc, *addr, stop, cfg.drainTimeout, nil, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snetd:", err)
	os.Exit(1)
}
