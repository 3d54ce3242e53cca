// Package directive parses the project's lint directives out of file
// comments for the meslint analyzers (internal/analysis/..., run by
// `make lint` via `go vet -vettool`).
//
// Two families exist:
//
//   - //lint:allow <analyzer> <reason> — suppress the named analyzer's
//     diagnostics on the same line or the line(s) the comment block
//     precedes. The reason is mandatory: an allow without one is itself
//     reported, so every exemption records its why.
//   - //mes:<name> [args] — contract annotations consumed by specific
//     analyzers: //mes:allocfree marks a function whose steady-state
//     path must not allocate, //mes:mechtable <Type> marks a construct that
//     must mention every constant of an enum type, //mes:mechevents and
//     //mes:mechevents-keys tie the mechanisms' traced event names to
//     the detector's channelEvents table.
//
// Like Go's own //go: directives, a directive comment must start flush
// against the slashes (no space) to count.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// entry is one parsed directive occurrence.
type entry struct {
	tool string // "lint" or "mes"
	verb string // "allow", "allocfree", "mechtable", ...
	args string // remainder, space-trimmed
	pos  token.Pos
}

// Index holds the parsed directives of one pass's files, addressable by
// line. Build one per analyzer run with NewIndex.
type Index struct {
	pass *analysis.Pass
	// byLine maps filename -> line -> directives attached to that line.
	// A directive is attached both to its own line (trailing-comment
	// form) and to the line immediately after its comment group
	// (preceding-block form), matching how gofmt anchors comments.
	byLine map[string]map[int][]entry
}

// NewIndex scans every non-test file of the pass. Malformed //lint:allow
// directives naming this pass's analyzer (missing analyzer or empty
// reason) are reported immediately: an exemption must say why.
func NewIndex(pass *analysis.Pass) *Index {
	ix := &Index{pass: pass, byLine: make(map[string]map[int][]entry)}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		fname := tf.Name()
		if strings.HasSuffix(fname, "_test.go") {
			continue // analyzers check production code only
		}
		for _, cg := range f.Comments {
			endLine := pass.Fset.Position(cg.End()).Line
			for _, c := range cg.List {
				tool, verb, args, ok := parse(c.Text)
				if !ok {
					continue
				}
				e := entry{tool: tool, verb: verb, args: args, pos: c.Slash}
				// Anchor to the directive's own line (trailing-comment
				// form) and to the line after its comment group (block
				// form preceding a declaration or statement).
				ix.add(fname, pass.Fset.Position(c.Slash).Line, e)
				ix.add(fname, endLine+1, e)
				if tool == "lint" && verb == "allow" {
					name, reason, _ := strings.Cut(args, " ")
					if name == pass.Analyzer.Name && strings.TrimSpace(reason) == "" {
						pass.Reportf(c.Slash, "//lint:allow %s needs a non-empty reason", name)
					}
				}
			}
		}
	}
	return ix
}

func (ix *Index) add(fname string, line int, e entry) {
	m := ix.byLine[fname]
	if m == nil {
		m = make(map[int][]entry)
		ix.byLine[fname] = m
	}
	for _, have := range m[line] {
		if have == e {
			return
		}
	}
	m[line] = append(m[line], e)
}

// parse splits a comment into (tool, verb, args). Only //lint: and
// //mes: comments with no space after the slashes qualify.
func parse(text string) (tool, verb, args string, ok bool) {
	body, found := strings.CutPrefix(text, "//lint:")
	if found {
		tool = "lint"
	} else if body, found = strings.CutPrefix(text, "//mes:"); found {
		tool = "mes"
	} else {
		return "", "", "", false
	}
	verb, args, _ = strings.Cut(body, " ")
	return tool, strings.TrimSpace(verb), strings.TrimSpace(args), verb != ""
}

// at returns the directives attached to pos's line.
func (ix *Index) at(pos token.Pos) []entry {
	p := ix.pass.Fset.Position(pos)
	return ix.byLine[p.Filename][p.Line]
}

// Allowed reports whether a diagnostic of this pass's analyzer at pos is
// suppressed by a //lint:allow with a non-empty reason (an empty reason
// was already reported by NewIndex and does not suppress).
func (ix *Index) Allowed(pos token.Pos) bool {
	for _, e := range ix.at(pos) {
		if e.tool != "lint" || e.verb != "allow" {
			continue
		}
		name, reason, _ := strings.Cut(e.args, " ")
		if name == ix.pass.Analyzer.Name && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// Mes returns the arguments of a //mes:<verb> directive attached to the
// node — trailing on its first line, or in the comment block immediately
// above it (including a FuncDecl/GenDecl doc comment).
func (ix *Index) Mes(node ast.Node, verb string) (args string, ok bool) {
	for _, e := range ix.at(node.Pos()) {
		if e.tool == "mes" && e.verb == verb {
			return e.args, true
		}
	}
	// Doc comments can carry the directive on any of their lines, not
	// just the last one.
	var doc *ast.CommentGroup
	switch n := node.(type) {
	case *ast.FuncDecl:
		doc = n.Doc
	case *ast.GenDecl:
		doc = n.Doc
	case *ast.ValueSpec:
		doc = n.Doc
	case *ast.Field:
		doc = n.Doc
	}
	if doc != nil {
		for _, c := range doc.List {
			if tool, v, a, k := parse(c.Text); k && tool == "mes" && v == verb {
				return a, true
			}
		}
	}
	return "", false
}

// InTestFile reports whether pos lies in a _test.go file. The meslint
// analyzers check production code only — tests allowlist themselves by
// construction.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	tf := pass.Fset.File(pos)
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}
