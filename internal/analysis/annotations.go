package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// An annotation is one parsed //antlint:<name> <reason> directive.
type annotation struct {
	Name   string // "orderok", "globalok", "noalloc", "allocok"
	Reason string
}

// annotationIndex maps (file, line) -> directives written on that
// line, either as a trailing comment or as a whole-line comment.
type annotationIndex map[annotationKey][]annotation

type annotationKey struct {
	file string
	line int
}

// parseAnnotation parses a single comment's text, returning ok=false
// for ordinary comments. Directives use the standard Go tool-directive
// shape: `//antlint:name reason...` with no space after the slashes.
func parseAnnotation(text string) (annotation, bool) {
	const prefix = "//antlint:"
	if !strings.HasPrefix(text, prefix) {
		return annotation{}, false
	}
	body := strings.TrimSpace(text[len(prefix):])
	name, reason, _ := strings.Cut(body, " ")
	return annotation{Name: name, Reason: strings.TrimSpace(reason)}, name != ""
}

func indexAnnotations(fset *token.FileSet, files []*ast.File) annotationIndex {
	idx := annotationIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := annotationKey{pos.Filename, pos.Line}
				idx[k] = append(idx[k], a)
			}
		}
	}
	return idx
}

// annotatedAt reports whether a directive named name is written on the
// node's line, the line above it, or the line above the node's doc
// comment — the three places a human would naturally put it.
func (p *Pass) annotatedAt(pos token.Pos, name string) (annotation, bool) {
	at := p.Fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, a := range p.annotations[annotationKey{at.Filename, line}] {
			if a.Name == name {
				return a, true
			}
		}
	}
	return annotation{}, false
}

// docAnnotated reports whether a declaration's doc comment carries
// the directive (the convention for declaration-scoped directives such
// as //antlint:noalloc).
func docAnnotated(doc *ast.CommentGroup, name string) (annotation, bool) {
	if doc == nil {
		return annotation{}, false
	}
	for _, c := range doc.List {
		if a, ok := parseAnnotation(c.Text); ok && a.Name == name {
			return a, true
		}
	}
	return annotation{}, false
}
