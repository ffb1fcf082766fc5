// Package lang is the public API of the textual S-Net surface language:
// the notation the paper uses for box declarations, filters and network
// expressions.
//
//	box computeOpts (board) -> (board, opts);
//	box solveOneLevel (board, opts) -> (board, opts) | (board, <done>);
//	net fig1 connect computeOpts .. (solveOneLevel ** {<done>});
//
// Box names are bound to Go implementations through a Registry — the role
// the SaC compiler plays in the paper's two-layer model:
//
//	reg := lang.NewRegistry().
//	    RegisterFunc("computeOpts", computeOptsFn).
//	    RegisterFunc("solveOneLevel", solveFn)
//	plan, err := lang.CompileNet(lang.MustParse(src), "fig1", reg)
//	h := plan.Start(ctx)
//
// CompileNet surfaces the compile phase's structured TypeErrors with .snet
// source positions; BuildText remains the unchecked build-only path.
package lang

import (
	internal "repro/internal/lang"
)

type (
	// Program is a parsed S-Net source file.
	Program = internal.Program
	// BoxDecl is a box declaration.
	BoxDecl = internal.BoxDecl
	// NetDecl is a net definition.
	NetDecl = internal.NetDecl
	// Registry binds box names to implementations.
	Registry = internal.Registry
	// Error is a parse or build failure with source position.
	Error = internal.Error
	// Pos is a source position.
	Pos = internal.Pos
	// Built is a built net plus the node → source-position index used to
	// map compile diagnostics back to the .snet source.
	Built = internal.Built
)

var (
	// Parse parses an S-Net program.
	Parse = internal.Parse
	// MustParse is Parse panicking on error.
	MustParse = internal.MustParse
	// NewRegistry returns an empty box registry.
	NewRegistry = internal.NewRegistry
	// Build instantiates a named net against a registry.
	Build = internal.Build
	// BuildNet is Build keeping the node → source-position index.
	BuildNet = internal.BuildNet
	// BuildText parses and builds in one step.
	BuildText = internal.BuildText
	// CompileNet builds a named net and compiles it (snet.Compile),
	// decorating every TypeError with its .snet source position.
	CompileNet = internal.CompileNet
	// AnalyzeNetWithCaps is CompileNet followed by the deadlock &
	// boundedness verifier under explicit capacity assumptions
	// (analysis.Caps) — the front end of snetrun -check and snetd
	// registration: the report carries the whole-plan memory high-water
	// bound, the deadlock verdict and findings with counterexample traces,
	// decorated with .snet source positions.
	AnalyzeNetWithCaps = internal.AnalyzeNetWithCaps
)
