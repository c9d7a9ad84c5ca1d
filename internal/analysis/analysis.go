// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis, built only on the standard library
// (the build environment is offline, so x/tools cannot be fetched). It
// exists to enforce — in CI, forever — the determinism and durability
// invariants this codebase has already paid for in bugs:
//
//   - detorder: no order-sensitive iteration over Go maps in the
//     deterministic replica packages. PR 6's establish() re-proposed
//     outstanding values in map order, breaking FIFO across a leader
//     change; the type system cannot see that class of bug, this pass
//     can. Suppress a provably order-insensitive loop with a
//     //detorder:sorted comment on (or immediately above) the range
//     statement, or iterate detsort.Keys(m) instead.
//
//   - walltime: no wall-clock or global-randomness reads in sim-shared
//     deterministic code. All time must come from the env/sim clocks
//     (env.Env.Now, sim.Sim.Now) and all randomness from internal/xrand;
//     time.Now in a replica makes two runs of the same seed diverge.
//     Suppress a deliberate live-runtime-only wait with //walltime:live.
//
//   - walpath: env.Storage.Append/AppendBatch are called only from
//     paxos/wal.go — every other WAL write must go through walWriter so
//     its group commit is the single flush authority. Additionally, every Append/AppendBatch implementation
//     must invoke its done callback on all control-flow paths: a dropped
//     completion wedges the WAL-before-ack pipeline forever. Suppress an
//     intentional direct call with //walpath:direct.
//
//   - guarded: struct fields annotated `// guarded by <mu>` are only
//     accessed in functions that lock that mutex first (best-effort,
//     syntactic). Helpers called with the lock already held are exempt
//     when their name ends in "Locked" or the access carries a
//     //guarded:held comment.
//
// The suite runs standalone and as a vettool:
//
//	go run ./cmd/analyze ./...
//	go vet -vettool=$(which analyze) ./...
//
// and each analyzer ships analysistest-style testdata fixtures under
// internal/analysis/<name>/testdata/src.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the passes can be
// rebased onto the real framework if the dependency ever becomes
// available.
type Analyzer struct {
	// Name identifies the pass in diagnostics and suppression comments.
	Name string

	// Doc is the one-paragraph help text.
	Doc string

	// Run executes the pass over one package and reports diagnostics
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over a loaded package and returns its
// diagnostics in position order (they are reported in traversal order,
// which is already positional for our passes). Test files are excluded:
// the invariants govern replica code, and tests legitimately drive
// storage directly, sleep on the live runtime, and poke guarded state
// (go vet hands the tool test files; the standalone loader never does).
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	files := make([]*ast.File, 0, len(pkg.Syntax))
	for _, f := range pkg.Syntax {
		if name := pkg.Fset.Position(f.Pos()).Filename; !strings.HasSuffix(name, "_test.go") {
			files = append(files, f)
		}
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	return pass.diagnostics, nil
}

// Suppressed reports whether a diagnostic of analyzer name at pos is
// silenced by a "//<name>:<reason>" comment on the same source line or
// the line immediately above. reason is free-form ("sorted", "live",
// "direct", "held"); the analyzer name must match.
func Suppressed(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, name+":") {
				return true
			}
		}
	}
	return false
}

// DeterministicPkg reports whether pkgPath is one of the packages whose
// code runs inside the deterministic replica state machines (shared
// between the simulator and the live runtime). The match is by path
// segment so analysistest fixtures can opt in by directory name.
func DeterministicPkg(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		switch seg {
		case "paxos", "core", "sim", "shard", "tpcw":
			return true
		}
	}
	return false
}
