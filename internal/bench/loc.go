package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"

	"github.com/rgml/rgml/internal/apps"
)

// LOCRow is one row of Table II: the lines-of-code comparison between the
// non-resilient and resilient versions of a benchmark application,
// including the size of the methods the executor drives.
type LOCRow struct {
	App               AppName
	NonResilientTotal int
	ResilientTotal    int
	CheckpointLOC     int
	RestoreLOC        int
	IsFinishedLOC     int
}

// locSources maps each application to its source files inside
// internal/apps: the plain program, and the file holding only what
// resilience adds to it (a constructor, Checkpoint and Restore).
var locSources = map[AppName][2]string{
	// [non-resilient file, resilient file]
	LinReg:   {"linreg_nonresilient.go", "linreg.go"},
	LogReg:   {"logreg_nonresilient.go", "logreg.go"},
	PageRank: {"pagerank_nonresilient.go", "pagerank.go"},
}

// LOCTable regenerates Table II by static analysis of the embedded
// application sources: total code lines (excluding comments and blanks) of
// the plain program and of the resilient program — the plain file plus the
// resilient one — and the lines of the IsFinished, Checkpoint and Restore
// methods, each read from whichever file declares it.
func LOCTable() ([]LOCRow, error) {
	var rows []LOCRow
	for _, app := range Apps {
		files := locSources[app]
		plain, err := countFileLOC(files[0])
		if err != nil {
			return nil, err
		}
		added, err := countFileLOC(files[1])
		if err != nil {
			return nil, err
		}
		row := LOCRow{App: app, NonResilientTotal: plain, ResilientTotal: plain + added}
		for _, m := range []struct {
			name string
			loc  *int
		}{{"IsFinished", &row.IsFinishedLOC}, {"Checkpoint", &row.CheckpointLOC}, {"Restore", &row.RestoreLOC}} {
			if *m.loc, err = countMethodLOC(files[:], m.name); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// codeLines returns the set of 1-based line numbers of src that carry at
// least one non-comment token.
func codeLines(name string, src []byte) (map[int]bool, *token.File, error) {
	fset := token.NewFileSet()
	file := fset.AddFile(name, -1, len(src))
	var sc scanner.Scanner
	var scanErr error
	sc.Init(file, src, func(pos token.Position, msg string) {
		scanErr = fmt.Errorf("bench: scanning %s: %s at %v", name, msg, pos)
	}, 0)
	lines := make(map[int]bool)
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			// Auto-inserted semicolon: not a source token.
			continue
		}
		lines[file.Line(pos)] = true
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return lines, file, nil
}

// countFileLOC counts the code lines of one embedded apps source file.
func countFileLOC(name string) (int, error) {
	src, err := apps.Sources.ReadFile(name)
	if err != nil {
		return 0, fmt.Errorf("bench: reading %s: %w", name, err)
	}
	lines, _, err := codeLines(name, src)
	if err != nil {
		return 0, err
	}
	return len(lines), nil
}

// countMethodLOC counts the code lines of the named method (including its
// signature and braces) in the first of the embedded apps source files
// that declares it.
func countMethodLOC(files []string, method string) (int, error) {
	for _, name := range files {
		src, start, end, err := methodLines(name, method)
		if err != nil {
			return 0, err
		}
		if start == 0 {
			continue
		}
		lines, _, err := codeLines(name, src)
		if err != nil {
			return 0, err
		}
		count := 0
		for l := start; l <= end; l++ {
			if lines[l] {
				count++
			}
		}
		return count, nil
	}
	return 0, fmt.Errorf("bench: method %s not found in %v", method, files)
}

// methodLines returns one embedded apps source file and the first and last
// line of the named method in it, or 0, 0 when the file declares no such
// method.
func methodLines(name, method string) (src []byte, start, end int, err error) {
	if src, err = apps.Sources.ReadFile(name); err != nil {
		return nil, 0, 0, fmt.Errorf("bench: reading %s: %w", name, err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bench: parsing %s: %w", name, err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == method {
			return src, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line, nil
		}
	}
	return src, 0, 0, nil
}
