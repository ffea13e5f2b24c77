// Command dprlint runs the repository's invariant checkers over the
// whole module: determinism (no global rand / clocks / map-ordered
// output in the deterministic packages), wire-deadline discipline,
// lock hygiene, the //dpr:hotpath allocation guard (direct and
// transitive through the call graph), shipped/folded counter
// conservation, goroutine join proofs, lock-acquisition-order
// acyclicity, atomic/plain access mixing, and codec symmetry. It
// exits non-zero when any diagnostic survives.
//
// Usage:
//
//	dprlint [-root dir] [-rules rule1,rule2] [-graphs dir] [package-path-suffix ...]
//
// With no arguments every package in the module is linted. Positional
// arguments restrict reporting to packages whose import path has one
// of the given suffixes (e.g. `dprlint internal/wire`). A suffix that
// names no package, or a -rules name outside lint.AllRules, exits 2
// instead of checking nothing. With -graphs, the call graph and
// lock-acquisition graph are written to dir as callgraph.{json,dot}
// and lockgraph.{json,dot}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dpr/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: nearest go.mod above cwd)")
	rules := flag.String("rules", "", "comma-separated rule subset (default: all)")
	graphs := flag.String("graphs", "", "write callgraph/lockgraph artifacts (json+dot) to this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dprlint [-root dir] [-rules %s] [-graphs dir] [pkg-suffix ...]\n",
			strings.Join(lint.AllRules, ","))
		flag.PrintDefaults()
	}
	flag.Parse()

	dir := *root
	var err error
	if dir == "" {
		dir, err = findModuleRoot()
		check(err)
	}
	module, err := lint.ModulePath(dir)
	check(err)
	cfg := lint.DefaultConfig(module)
	if *rules != "" {
		cfg.Rules = strings.Split(*rules, ",")
	}
	check(cfg.CheckRules())

	loader := lint.NewLoader()
	pkgs, err := loader.LoadModule(dir)
	check(err)
	if args := flag.Args(); len(args) > 0 {
		pkgs, err = loader.Select(pkgs, args)
		check(err)
	}
	res := lint.Analyze(loader, pkgs, cfg)
	if *graphs != "" {
		check(writeGraphs(*graphs, res))
	}
	for _, d := range res.Diags {
		if rel, err := filepath.Rel(dir, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			d.File = rel
		}
		fmt.Println(d)
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "dprlint: %d issue(s)\n", len(res.Diags))
		os.Exit(1)
	}
}

// check exits with status 2 on a usage or I/O error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dprlint:", err)
		os.Exit(2)
	}
}

// writeGraphs dumps the interprocedural proof artifacts (when the
// corresponding rules ran) as JSON and Graphviz dot.
func writeGraphs(dir string, res lint.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, g := range []*lint.GraphDoc{res.CallGraph, res.LockGraph} {
		if g == nil {
			continue
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, g.Name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, g.Name+".dot"), []byte(g.Dot()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// findModuleRoot walks up from the working directory to a go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}
