// Package repro is a from-scratch Go reproduction of Grelck, Scholz &
// Shafarenko, "Coordinating Data Parallel SAC Programs with S-Net"
// (IPPS 2007): the S-Net stream-coordination runtime and language, the SaC
// data-parallel array substrate with a Core SaC interpreter, and the
// paper's sudoku case study with its three solver networks.
//
// Public entry points:
//
//   - snet         — the coordination runtime (records, boxes, combinators)
//   - snet/lang    — the textual S-Net language
//   - snet/service — networks served to concurrent clients (see cmd/snetd)
//   - sac          — arrays and with-loops
//   - sac/lang     — the Core SaC interpreter
//   - sudoku       — the case study
//
// See README.md for an overview, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the index from each paper claim to the benchmark
// metric or test that checks it.
package repro
