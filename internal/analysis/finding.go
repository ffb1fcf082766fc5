package analysis

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Finding codes.
const (
	// CodeSyncStarvation marks a synchrocell join pattern the inferred
	// upstream flow can never supply while other patterns fill — the
	// stored records are held forever.
	CodeSyncStarvation = "sync-starvation"
	// CodeDeadArm marks a subgraph no variant of the closed-world input
	// type ever reaches, or a synchrocell that can never fire.
	CodeDeadArm = "dead-arm"
	// CodeStarDivergence marks a serial replication whose entering records
	// can never satisfy the exit pattern.
	CodeStarDivergence = "star-divergence"
	// CodeUnboundedSplit marks an indexed parallel replication whose
	// replicas contain a starving join and have no retire path.
	CodeUnboundedSplit = "unbounded-split"
	// CodeDeadlockCycle marks a wait-for cycle through the coordination
	// structure: a synchrocell awaits a variant whose only producers lie
	// downstream of the cell itself, so the records that could complete
	// the join can only materialize after the join has fired — a circular
	// wait that no schedule resolves.
	CodeDeadlockCycle = "deadlock-cycle"
	// CodeCapacityOverflow marks a plan whose static memory high-water
	// bound exceeds the configured budget (Caps.MemoryBudget) — the
	// admission-control verdict: the plan is deadlock-free but cannot be
	// guaranteed to fit.
	CodeCapacityOverflow = "capacity-overflow"
	// CodeUnboundedOccupancy marks a subgraph whose queue occupancy grows
	// without bound under any finite capacity assumption — a diverging
	// star chain accumulating every record that enters it.
	CodeUnboundedOccupancy = "unbounded-occupancy"
)

// deadlockCodes are the finding codes that make a plan deadlock-positive:
// some records can be held, circulate, or accumulate forever.  dead-arm and
// marker-hazard are structural defects but not deadlocks; capacity-overflow
// is a boundedness verdict against a budget, not a deadlock.
var deadlockCodes = map[string]bool{
	CodeSyncStarvation:     true,
	CodeDeadlockCycle:      true,
	CodeStarDivergence:     true,
	CodeUnboundedSplit:     true,
	CodeUnboundedOccupancy: true,
}

// TraceStep is one hop of a counterexample trace: the graph edge into Path
// together with the blocking fill state of that edge (or the held state of
// the node itself on the final step).  Pos is filled in by surface front
// ends that can map the subject node to .snet source, exactly like
// Finding.Pos.
type TraceStep struct {
	Path  string `json:"path"`
	Node  string `json:"node"`
	State string `json:"state"`
	Pos   string `json:"pos,omitempty"`

	subject core.Node
}

// Subject returns the node this step is anchored to, for front ends that
// decorate steps with source positions.
func (s *TraceStep) Subject() core.Node { return s.subject }

// Finding is one structured analysis result, mirroring core.TypeError: Path
// locates the node from the compiled root, Pos is filled in by surface
// front ends (snet/lang) that can map the subject node to .snet source.
type Finding struct {
	Code    string       // one of the Code constants
	Path    string       // node path from the compiled root
	Node    string       // the subject node's name
	Variant core.Variant // record shape or pattern variant exhibiting the defect, if any
	Msg     string
	Pos     string // source position ("line:col"), if known
	// Exact reports whether the supporting flow facts were exact; findings
	// downstream of a synchrocell or a truncated variant set are
	// approximate and rendered as such.
	Exact bool
	// Trace is the counterexample: the ordered chain of graph edges from
	// the network entry to the defect (and, for wait-for cycles, onward to
	// the node that closes the cycle), each step annotated with its
	// blocking fill state.  Empty for findings without an occupancy
	// witness (dead arms, marker hazards).
	Trace []TraceStep

	at *core.GraphNode // where in the plan's tree
}

// Subject returns the node the finding is about, for front ends that map
// nodes back to source positions (cf. core.TypeError.Subject).
func (f *Finding) Subject() core.Node { return f.at.Node }

func (f *Finding) String() string {
	var b strings.Builder
	b.WriteString("snet: ")
	if f.Pos != "" {
		b.WriteString(f.Pos)
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "lint [%s] at %s: %s", f.Code, f.Path, f.Msg)
	if !f.Exact {
		b.WriteString(" (imprecise: approximate variant flow)")
	}
	for i, s := range f.Trace {
		b.WriteString("\n")
		fmt.Fprintf(&b, "    trace[%d]", i)
		if s.Pos != "" {
			b.WriteString(" " + s.Pos)
		}
		fmt.Fprintf(&b, " %s: %s", s.Path, s.State)
	}
	return b.String()
}

// Report is the result of one Analyze call.
type Report struct {
	// Findings, sorted by (Path, Code, Msg) for stable output and
	// deduplicated across shared memoized subtrees.
	Findings []*Finding
	// Nodes is the number of graph nodes analysed.
	Nodes int
	// Edges is the number of stream edges the occupancy pass modeled.
	Edges int
	// Bound is the whole-plan static memory high-water bound computed by
	// the occupancy pass under the report's Caps.
	Bound *Bound
	// Caps are the capacity assumptions the occupancy verdicts hold under.
	Caps Caps
}

// Empty reports whether the analysis found nothing.
func (r *Report) Empty() bool { return len(r.Findings) == 0 }

// DeadlockFree reports the verifier's headline verdict: no finding of a
// deadlock class (sync starvation, wait-for cycles, diverging or unbounded
// replication).  Structural findings (dead arms, marker hazards) and the
// budget verdict (capacity-overflow) do not revoke it.
func (r *Report) DeadlockFree() bool {
	for _, f := range r.Findings {
		if deadlockCodes[f.Code] {
			return false
		}
	}
	return true
}
