// Command snetvet checks the repository's runtime invariants that the Go
// compiler cannot see: raw item/frame channels outside stream.go, node run
// loops that return without draining their reader or that discard a send
// result (ignoring the reader hanging up).  The analyzers are purely
// syntactic, so the tool is self-contained — no typechecking, no export
// data, no dependencies beyond the standard library.
//
// It speaks the `go vet -vettool` protocol, so the whole repository is
// checked with:
//
//	go build -o /tmp/snetvet ./cmd/snetvet
//	go vet -vettool=/tmp/snetvet ./...
//
// and it also runs standalone over files, directories, or dir/... trees:
//
//	snetvet internal/core
//	snetvet ./...
//
// Findings are printed as file:line:col: message on stderr and the exit
// status is 2 (1 for usage or parse errors), the vet convention.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	var operands []string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			return printVersion(stdout, stderr)
		case a == "-flags":
			// The go command interrogates the tool's flags; none are
			// forwarded beyond the standard ones handled here.
			fmt.Fprintln(stdout, "[]")
			return 0
		case a == "-json":
			jsonOut = true
		case a == "-h" || a == "-help" || a == "--help":
			usage(stderr)
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "snetvet: unknown flag %s\n", a)
			usage(stderr)
			return 1
		default:
			operands = append(operands, a)
		}
	}
	if len(operands) == 0 {
		usage(stderr)
		return 1
	}
	// go vet invokes the tool with a single *.cfg argument describing one
	// package; anything else is the standalone file/directory mode.
	if len(operands) == 1 && strings.HasSuffix(operands[0], ".cfg") {
		return runVetCfg(operands[0], jsonOut, stdout, stderr)
	}
	return runStandalone(operands, jsonOut, stdout, stderr)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: snetvet [-json] (package.cfg | file.go... | dir... | dir/...)")
}

// printVersion implements the -V=full handshake: the go command hashes the
// output into the build cache key, so it must be stable per binary.  The
// format mirrors x/tools' unitchecker.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "snetvet:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "snetvet:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "snetvet:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), h.Sum(nil))
	return 0
}

// vetConfig is the subset of the go command's vet configuration file the
// syntactic analyzers need.  Unknown fields (import maps, export data,
// facts of dependencies) are ignored by encoding/json.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg analyzes one package as directed by the go command.
func runVetCfg(path string, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "snetvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "snetvet: %s: %v\n", path, err)
		return 1
	}
	// The go command always expects the facts file, even from a tool with
	// no facts to export.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("snetvet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(stderr, "snetvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	u, err := parseUnit(cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "snetvet:", err)
		return 1
	}
	return report(cfg.ImportPath, analyze(u), jsonOut, stdout, stderr)
}

// runStandalone analyzes loose files and directory trees, grouping files
// by (directory, package clause) so external test packages form their own
// units just as they do under go vet.
func runStandalone(operands []string, jsonOut bool, stdout, stderr io.Writer) int {
	var files []string
	seen := map[string]bool{}
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			files = append(files, path)
		}
	}
	for _, op := range operands {
		switch {
		case strings.HasSuffix(op, "/..."):
			root := strings.TrimSuffix(op, "/...")
			if root == "." || root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && path != root {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(path, ".go") {
					add(path)
				}
				return nil
			})
			if err != nil {
				fmt.Fprintln(stderr, "snetvet:", err)
				return 1
			}
		default:
			info, err := os.Stat(op)
			if err != nil {
				fmt.Fprintln(stderr, "snetvet:", err)
				return 1
			}
			if info.IsDir() {
				entries, err := os.ReadDir(op)
				if err != nil {
					fmt.Fprintln(stderr, "snetvet:", err)
					return 1
				}
				for _, e := range entries {
					if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
						add(filepath.Join(op, e.Name()))
					}
				}
			} else {
				add(op)
			}
		}
	}
	// Group into units.
	fset := token.NewFileSet()
	units := map[string]*unit{} // "dir\x00pkg" -> unit
	var keys []string
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(stderr, "snetvet:", err)
			return 1
		}
		key := filepath.Dir(path) + "\x00" + f.Name.Name
		u, ok := units[key]
		if !ok {
			u = &unit{fset: fset}
			units[key] = u
			keys = append(keys, key)
		}
		u.files = append(u.files, f)
	}
	sort.Strings(keys)
	worst := 0
	for _, key := range keys {
		dir, _, _ := strings.Cut(key, "\x00")
		if code := report(dir, analyze(units[key]), jsonOut, stdout, stderr); code > worst {
			worst = code
		}
	}
	return worst
}

func parseUnit(paths []string) (*unit, error) {
	u := &unit{fset: token.NewFileSet()}
	for _, path := range paths {
		f, err := parser.ParseFile(u.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
	}
	return u, nil
}

func analyze(u *unit) []diagnostic {
	var diags []diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.run(u)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].pos.Filename != diags[j].pos.Filename {
			return diags[i].pos.Filename < diags[j].pos.Filename
		}
		if diags[i].pos.Line != diags[j].pos.Line {
			return diags[i].pos.Line < diags[j].pos.Line
		}
		return diags[i].pos.Column < diags[j].pos.Column
	})
	return diags
}

// report prints one unit's diagnostics: plain text on stderr with exit
// code 2 (the vet convention), or the unitchecker-compatible JSON object
// on stdout with exit code 0.
func report(unitName string, diags []diagnostic, jsonOut bool, stdout, stderr io.Writer) int {
	if jsonOut {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := map[string][]jsonDiag{}
		for _, d := range diags {
			byAnalyzer[d.analyzer] = append(byAnalyzer[d.analyzer],
				jsonDiag{Posn: d.pos.String(), Message: d.msg})
		}
		out := map[string]map[string][]jsonDiag{unitName: byAnalyzer}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s\n", d.pos, d.msg)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
