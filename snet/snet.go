// Package snet is the public API of the S-Net coordination runtime — the
// primary contribution of Grelck, Scholz & Shafarenko, "Coordinating Data
// Parallel SAC Programs with S-Net" (IPPS 2007).
//
// S-Net turns stateless functions into asynchronously executed stream
// components ("boxes") over typed records, and composes them with four
// network combinators (and their deterministic variants):
//
//	Serial(a, b)        a .. b      pipeline
//	Parallel(a, b)      a || b      best-match routing, eager merge
//	Star(a, pattern)    a ** (p)    demand-driven serial replication
//	Split(a, "k")       a !! <k>    tag-indexed parallel replication
//	ParallelDet/StarDet/SplitDet    |  *  !   (order-preserving variants)
//
// plus housekeeping Filters, Synchrocells and transparent Observe taps.
//
// The API is compile-then-run, and Compile → Plan is the only way to run a
// network.  A Node tree is an immutable blueprint; Compile type-checks
// it (bottom-up inference with record subtyping and flow inheritance, §3–4 of
// the paper), fuses chains of stages into single-goroutine
// segments, and returns a Plan over the routing tables the hot path
// dispatches through; Plan.Start, Plan.RunAll and Plan.RunUntil instantiate
// runs.  Quickstart:
//
//	inc := snet.NewBox("inc", snet.MustParseSignature("(<n>) -> (<n>)"),
//	    func(args []any, out *snet.Emitter) error {
//	        return out.Out(1, args[0].(int)+1)
//	    })
//	plan, err := snet.Compile(snet.Serial(inc, snet.MustFilter("{<n>} -> {<n>=<n>*2}")))
//	if err != nil { ... }            // structured *TypeErrors, before anything runs
//	h := plan.Start(context.Background())
//	h.Send(snet.NewRecord().SetTag("n", 20))
//	h.Close()
//	for r := range h.Out() { fmt.Println(r) } // {<n>=42}
//
// Compile rejects — with node paths — defects that would otherwise surface
// mid-stream: unreachable Parallel branches, record shapes no branch accepts,
// box signature mismatches, records reaching a Split without its index tag.
//
// API at a glance:
//
//	build    NewBox NewBoxConcurrent NewFilter FilterFrom MustFilter
//	         Sync NamedSync Observe
//	         Serial Parallel ParallelDet Star StarDet NamedStar NamedStarDet
//	         Split SplitDet NamedSplit NamedSplitDet
//	parse    ParseSignature ParsePattern ParseFilter ParseTagExpr (+ Must…)
//	         the same grammar as .snet text (snet/lang): one lexer, one
//	         set of productions
//	compile  Compile MustCompile           options: WithInputType WithFusion
//	inspect  Plan.In Plan.Out Plan.Warnings Plan.TypeErrors
//	         Plan.Topology Plan.FusionGroups
//	run      Plan.Start → Handle        a stream the caller feeds and reads
//	         Plan.RunAll Plan.RunUntil  one-shot runs that take their inputs:
//	                                    one goroutine where the root cuts to
//	                                    one segment
//	         options: WithBuffer WithStreamBatch WithBoxWorkers
//	                  WithMaxStarDepth WithMaxSplitWidth
//	                  WithTracer WithErrorHandler
//	         box width: given (NewBoxConcurrent, WithBoxWorkers) it is
//	         obeyed, 1 = sequential; not given, a box runs sequentially
//	         until its own service time repays concurrent invocation,
//	         then up to GOMAXPROCS at a time
//	handle   Send SendCtx SendBatch Close Out Wait Cancel Stats Err
//	records  NewRecord AcquireRecord ReleaseRecord PoolStats
//	errors   ErrClosed ErrCancelled ErrNoRoute (*NoRouteError)
//	         *CompileError of *TypeError (ErrCode… constants)
//
// See snet/lang for the textual network language of the paper, and
// snet/service for serving compiled networks to concurrent sessions.
package snet

import "repro/internal/core"

// Core data model.
type (
	// Record is a set of labelled fields (opaque values) and tags (ints).
	Record = core.Record
	// Label names a field or tag.
	Label = core.Label
	// Variant is a record type: a set of labels.
	Variant = core.Variant
	// RecType is a disjunction of variants.
	RecType = core.RecType
	// Pattern is a variant with an optional tag guard.
	Pattern = core.Pattern
	// TagExpr is an integer expression over tag values.
	TagExpr = core.TagExpr
	// BoxSignature declares a box's input tuple and output variants.
	BoxSignature = core.BoxSignature
	// FilterSpec is a parsed filter.
	FilterSpec = core.FilterSpec
	// FilterItem is one element of a filter output specifier.
	FilterItem = core.FilterItem
)

// Runtime types.
type (
	// Node is a SISO network component (box, filter or combinator).
	Node = core.Node
	// BoxFunc is the computation wrapped by a box.
	BoxFunc = core.BoxFunc
	// Emitter delivers box outputs (the paper's snet_out).
	Emitter = core.Emitter
	// Handle is a running network.
	Handle = core.Handle
	// Stats collects runtime counters (replica counts, box calls, ...).
	Stats = core.Stats
	// Tracer observes records crossing node boundaries.
	Tracer = core.Tracer
	// TracerFunc adapts a function to Tracer.
	TracerFunc = core.TracerFunc
	// Option configures a run.
	Option = core.Option
	// Diagnostic is a network type-check finding.
	Diagnostic = core.Diagnostic
)

// Compile phase (the typed Plan API).
type (
	// Plan is a compiled network: the checked blueprint plus its
	// precomputed routing tables and serializable topology.  Start it any
	// number of times; all runs share the tables.
	Plan = core.Plan
	// CompileOption configures Compile.
	CompileOption = core.CompileOption
	// TypeError is one definite compile finding, located by node path.
	TypeError = core.TypeError
	// CompileError aggregates a Compile call's TypeErrors.
	CompileError = core.CompileError
	// NoRouteError is the runtime form of a routing failure: a record whose
	// type matches no Parallel branch.  It unwraps to ErrNoRoute.
	NoRouteError = core.NoRouteError
	// Topology is the serializable typed graph of a compiled network.
	Topology = core.Topology
	// FusionGroup names one fused segment of a compiled plan and its
	// constituent stages (Topology.FusionGroups, Plan.FusionGroups).
	FusionGroup = core.FusionGroup
)

// Compile type-checks a network and returns its Plan; MustCompile panics on
// type errors.  WithInputType declares the network's input type instead of
// inferring it bottom-up.  The TypeError codes are the ErrCode constants.
// A plan groups its stages one way: maximal chains of stages — filters,
// Observe taps, synchrocells and boxes not pinned wider than one call at a
// time — run as single-goroutine fused segments with no streams between
// stages.  WithFusion ignores its argument; ROADMAP item 5(2) deletes it.
var (
	Compile       = core.Compile
	MustCompile   = core.MustCompile
	WithInputType = core.WithInputType
	WithFusion    = core.WithFusion
)

// TypeError codes.
const (
	ErrCodeUnreachable = core.ErrCodeUnreachable
	ErrCodeNoRoute     = core.ErrCodeNoRoute
	ErrCodeBoxReject   = core.ErrCodeBoxReject
	ErrCodeMissingTag  = core.ErrCodeMissingTag
)

// Record and label constructors.
var (
	NewRecord  = core.NewRecord
	Field      = core.Field
	Tag        = core.Tag
	NewVariant = core.NewVariant
	NewStats   = core.NewStats
)

// Record arena.  The runtime recycles the records it creates internally
// (filter outputs, box emissions, synchrocell merges) through a process-wide
// pool; records handed to user code through Handle.Out leave the pool's
// domain and are reclaimed by the GC as usual.  High-throughput producers
// can opt into the same economy: AcquireRecord returns a pooled empty
// record, and ReleaseRecord returns one whose contents are no longer needed
// (using a record after release panics — ownership transfers completely).
// PoolStats exposes the acquire/recycle/disown counters leak tests assert
// on.
type RecordPoolStats = core.RecordPoolStats

var (
	AcquireRecord = core.AcquireRecord
	ReleaseRecord = core.ReleaseRecord
	PoolStats     = core.PoolStats
)

// Parsers for one production each of the S-Net grammar — the grammar of
// .snet programs (snet/lang), read by the same lexer and productions, so
// comments and Unicode identifiers are accepted here as they are there.
var (
	ParseSignature     = core.ParseSignature
	MustParseSignature = core.MustParseSignature
	ParsePattern       = core.ParsePattern
	MustParsePattern   = core.MustParsePattern
	ParseFilter        = core.ParseFilter
	MustParseFilter    = core.MustParseFilter
	ParseTagExpr       = core.ParseTagExpr
	MustParseTagExpr   = core.MustParseTagExpr
)

// Node constructors.
var (
	// NewBox declares a box.  Its invocation width is the run's
	// WithBoxWorkers; with none given the runtime chooses (see there).
	NewBox = core.NewBox
	// NewBoxConcurrent is NewBox with a fixed per-box concurrency width,
	// in force from the box's first record (0 is NewBox, 1 pins sequential).
	NewBoxConcurrent = core.NewBoxConcurrent
	NewFilter        = core.NewFilter
	FilterFrom       = core.FilterFrom
	MustFilter       = core.MustFilter
	Observe          = core.Observe
	Serial           = core.Serial
	Parallel         = core.Parallel
	ParallelDet      = core.ParallelDet
	Star             = core.Star
	StarDet          = core.StarDet
	NamedStar        = core.NamedStar
	NamedStarDet     = core.NamedStarDet
	Split            = core.Split
	SplitDet         = core.SplitDet
	NamedSplit       = core.NamedSplit
	NamedSplitDet    = core.NamedSplitDet
	Sync             = core.Sync
	// NamedSync is Sync with an explicit stats label
	// ("sync.<name>.fired"/"sync.<name>.starved") and a stable topology name.
	NamedSync = core.NamedSync
)

// Run options.
var (
	// WithBuffer sets the per-stream buffer capacity in frames.
	WithBuffer = core.WithBuffer
	// WithStreamBatch sets the stream batch size B: how many records a hot
	// stream coalesces into one channel synchronization.  Flushing is
	// adaptive — markers, idle inputs and close always flush — so
	// deterministic results and low-load latency are independent of B.
	WithStreamBatch  = core.WithStreamBatch
	WithTracer       = core.WithTracer
	WithErrorHandler = core.WithErrorHandler
	// WithBoxWorkers sets the per-box invocation concurrency width W for
	// the run, in force from every box's first record (1 = sequential).
	// Without it the runtime chooses per box: sequential until the box's
	// own measured service time exceeds the cost of handing invocations to
	// other goroutines, then up to GOMAXPROCS at a time.  Output order is
	// preserved at any width and across that switch, so deterministic
	// networks stay deterministic.
	WithBoxWorkers    = core.WithBoxWorkers
	WithMaxStarDepth  = core.WithMaxStarDepth
	WithMaxSplitWidth = core.WithMaxSplitWidth
)

// Errors.
var ErrCancelled = core.ErrCancelled
var ErrClosed = core.ErrClosed

// ErrNoRoute is the sentinel under every *NoRouteError — check it with
// errors.Is on WithErrorHandler callbacks or Handle.Err.
var ErrNoRoute = core.ErrNoRoute
