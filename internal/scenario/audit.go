package scenario

// audit.go cross-checks docs/e2e-cases.md against reality: a `done`
// row with no Coverage cell is documentation drift (the doc claims a
// test that nothing names), so is a `done` row whose Coverage cell
// names a Go test that no _test.go file of the enclosing module
// defines, and the Z-table must match the shipped scenario files
// one-to-one in both directions.

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// ErrAudit marks doc-drift findings, for the CLI's distinct exit code.
var ErrAudit = errors.New("scenario: audit failure")

// AuditFinding is one machine-readable drift record.
type AuditFinding struct {
	Case    string `json:"case"` // Case ID, or the scenario name for orphans
	Problem string `json:"problem"`
}

// caseRow is one parsed row of an e2e-cases table.
type caseRow struct {
	ID, Title, Status, Coverage string
	Line                        int
}

// parseCases extracts every `| Case ID | ... |` table row from the
// markdown file, using each table's header to index the columns.
func parseCases(path string) ([]caseRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()

	var rows []caseRow
	var cols map[string]int // current table's header index
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "|") {
			cols = nil
			continue
		}
		cells := splitRow(line)
		if len(cells) == 0 {
			continue
		}
		if cells[0] == "Case ID" {
			cols = make(map[string]int, len(cells))
			for i, c := range cells {
				cols[c] = i
			}
			continue
		}
		if strings.HasPrefix(cells[0], "---") || strings.HasPrefix(cells[0], "-") && strings.Trim(cells[0], "- ") == "" {
			continue // separator row
		}
		if cols == nil {
			continue
		}
		get := func(name string) string {
			i, ok := cols[name]
			if !ok || i >= len(cells) {
				return ""
			}
			return cells[i]
		}
		rows = append(rows, caseRow{
			ID:       get("Case ID"),
			Title:    get("Title"),
			Status:   get("Status"),
			Coverage: get("Coverage"),
			Line:     n,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return rows, nil
}

func splitRow(line string) []string {
	parts := strings.Split(strings.Trim(line, "|"), "|")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

// Audit checks the cases document against the loaded scenarios. The
// returned findings are empty when the doc and the suite agree; a
// non-nil error means the doc itself could not be read or parsed.
func Audit(casesPath string, scs []*Scenario) ([]AuditFinding, error) {
	rows, err := parseCases(casesPath)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: %s: no case tables found", ErrAudit, casesPath)
	}
	var findings []AuditFinding
	var defined map[string]bool // test names, bare and pkg-qualified; built on first use

	byCase := map[string]caseRow{}
	for _, r := range rows {
		if r.ID == "" {
			findings = append(findings, AuditFinding{
				Case:    fmt.Sprintf("line %d", r.Line),
				Problem: "table row with empty Case ID",
			})
			continue
		}
		if _, dup := byCase[r.ID]; dup {
			findings = append(findings, AuditFinding{Case: r.ID, Problem: "duplicate Case ID"})
		}
		byCase[r.ID] = r
		if r.Status != "done" {
			continue
		}
		// The core drift check: a row claiming coverage must name it,
		// and every Go test it names must exist.
		if r.Coverage == "" {
			findings = append(findings, AuditFinding{
				Case:    r.ID,
				Problem: fmt.Sprintf("status done with empty Coverage (line %d)", r.Line),
			})
		}
		for _, name := range testName.FindAllString(r.Coverage, -1) {
			if defined == nil {
				if defined, err = definedTests(casesPath); err != nil {
					return nil, err
				}
			}
			if !defined[strings.Trim(name, "`")] {
				findings = append(findings, AuditFinding{
					Case:    r.ID,
					Problem: fmt.Sprintf("Coverage names %s, which no _test.go file defines (line %d)", name, r.Line),
				})
			}
		}
	}

	// Scenario files ↔ Z-table, both directions.
	byFile := map[string]*Scenario{}
	for _, sc := range scs {
		if prev, dup := byFile[sc.Case]; dup {
			findings = append(findings, AuditFinding{
				Case:    sc.Case,
				Problem: fmt.Sprintf("claimed by both %s and %s", prev.Path, sc.Path),
			})
			continue
		}
		byFile[sc.Case] = sc
		row, ok := byCase[sc.Case]
		if !ok {
			findings = append(findings, AuditFinding{
				Case:    sc.Case,
				Problem: fmt.Sprintf("scenario %s cites a case absent from %s", sc.Name, casesPath),
			})
			continue
		}
		if row.Status != "done" {
			findings = append(findings, AuditFinding{
				Case:    sc.Case,
				Problem: fmt.Sprintf("scenario %s exists but the doc marks the case %q", sc.Name, row.Status),
			})
		}
	}
	for id, r := range byCase {
		if !strings.HasPrefix(id, "Z") {
			continue
		}
		if _, ok := byFile[id]; !ok && r.Status == "done" {
			findings = append(findings, AuditFinding{
				Case:    id,
				Problem: "done Z-case has no scenario file",
			})
		}
	}

	// Deterministic order for output and tests.
	for i := 1; i < len(findings); i++ {
		for j := i; j > 0 && findings[j].Case < findings[j-1].Case; j-- {
			findings[j], findings[j-1] = findings[j-1], findings[j]
		}
	}
	return findings, nil
}

// testName matches a backticked Coverage entry naming a Go test,
// benchmark or fuzz target, optionally qualified by its package
// directory: `TestX`, `pkg.FuzzY`.
var testName = regexp.MustCompile("`(?:[a-z][a-z0-9_]*\\.)?(?:Test|Fuzz|Benchmark)\\w*`")

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// definedTests indexes the Test/Fuzz/Benchmark functions of every
// _test.go file in the module enclosing casesPath (the nearest
// directory upward holding a go.mod), both bare ("TestX") and
// qualified by the defining directory's base name ("pkg.TestX"). With
// no enclosing module it indexes nothing, so every named test is
// reported missing.
func definedTests(casesPath string) (map[string]bool, error) {
	defined := map[string]bool{}
	root, err := filepath.Abs(filepath.Dir(casesPath))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(root) == root {
			return defined, nil
		}
		root = filepath.Dir(root)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git and build caches
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
			defined[filepath.Base(filepath.Dir(path))+"."+string(m[1])] = true
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: indexing tests: %w", err)
	}
	return defined, nil
}
