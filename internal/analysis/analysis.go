// Package analysis is antdensity's custom static-analysis suite: four
// analyzers enforcing, at build time, the invariants the rest of the
// repository proves at run time — deterministic iteration order and
// RNG purity in every result-affecting package, fingerprint coverage
// of the Spec struct (so the (Spec, seed) result cache can never
// serve a wrong answer for a field someone forgot to hash), and
// zero-allocation hot paths (the same functions the AllocsPerRun
// suites pin).
//
// The suite is self-contained on the standard library's go/ast and
// go/types: the loader resolves imports through `go list -export`
// compiled export data, so no golang.org/x/tools dependency is
// needed. The API deliberately mirrors x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers could be ported onto a
// multichecker with mechanical changes if the dependency ever lands.
//
// `go run ./cmd/antlint ./...` runs every analyzer over the module
// and exits non-zero on any diagnostic; CI enforces it. Findings are
// suppressed only by explicit annotations naming a reason:
//
//	//antlint:orderok <reason>   — this map iteration is order-independent
//	//antlint:globalok <reason>  — this package-level mutable var is deliberate
//	//antlint:noalloc            — this function must not allocate (opt-in check)
//	//antlint:allocok <reason>   — this line inside a noalloc function may allocate
//	//antlint:testonly <reason>  — this exported internal API is only called by tests, on purpose
//
// The last is read by TestRepoNoTestOnlyExports, a test rather than an
// analyzer because it asks about every package at once: an exported
// declaration under internal/ that no non-test code of the module or
// of perfbench references fails it unless its doc comment carries the
// marker with a reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. Run inspects a single
// type-checked package through its Pass and reports diagnostics; it
// returns an error only for infrastructure failures (a diagnostic is
// never an error).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	annotations annotationIndex
	report      func(Diagnostic)
}

// A Diagnostic is one finding, positioned and attributed to the
// analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, RngPurity, FingerprintCover, NoAlloc}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have mapiter, rngpurity, fingerprintcover, noalloc)", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the loaded packages and returns
// every diagnostic sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ann := indexAnnotations(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.TypesInfo,
				annotations: ann,
				report:      func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
