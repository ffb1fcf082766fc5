// Package analysis is the graph-level static-analysis pass over compiled
// Plans — the liveness/deadlock half of the claim that S-Net coordination is
// statically checkable.  Where the compile-time shape-flow pass (core's
// flow.go) reports *type* defects — shapes a box rejects, branches nothing
// routes to — this pass reads the typed tree that pass annotated (Plan.Graph:
// every GraphNode carries what the flow saw reach and leave it, and its
// Parent) and reports *coordination* defects:
//
//	sync-starvation   a synchrocell join pattern the upstream flow can
//	                  never supply: records matching the other patterns
//	                  are stored and held forever — the join deadlocks.
//	dead-arm          a subgraph no variant of the closed-world input
//	                  type ever reaches (parallel branches beyond the
//	                  compile pass's unreachable-branch error, star
//	                  chains that are never entered, synchrocells that
//	                  can never fire).
//	star-divergence   a serial-replication chain whose records can never
//	                  satisfy the exit pattern: the chain unfolds without
//	                  bound and nothing ever leaves.
//	unbounded-split   an indexed parallel replication whose replicas each
//	                  contain a starving join: replicas accumulate held
//	                  records with no close or reap path retiring them.
//	marker-hazard     subgraph shapes that can drop or reorder reserved
//	                  "__snet_" control records: session splits nested
//	                  inside replication, where the close/ack barrier
//	                  degrades to merge order.
//
// Soundness: findings are warnings, not errors.  The analysis is
// closed-world over the plan's inferred (or declared) input type, and the
// underlying variant sets are approximate downstream of synchrocells and
// after truncation — Finding.Exact records whether the supporting flow was
// exact.  The pass never blocks Compile; surface tools (snetrun -check
// -lint, snetd registration logging) decide how loudly to report.
package analysis
