package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"because/internal/lint"
)

// The fixture packages are reached relative to this package directory
// (the test working directory). maporder is used for positive findings
// because, unlike determinism, it is not scoped to production paths.
const (
	maporderFixture    = "./../../internal/lint/testdata/src/maporder"
	determinismFixture = "./../../internal/lint/testdata/src/determinism"
)

// TestListMatchesRegistry pins -list to the analyzer registry exactly:
// one line per lint.All() entry, in registry order, each leading with the
// analyzer name and carrying its one-line doc. A new analyzer that is
// registered but missing from -list (or vice versa) fails here.
func TestListMatchesRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	all := lint.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, registry has %d analyzers:\n%s", len(lines), len(all), out.String())
	}
	for i, a := range all {
		fields := strings.Fields(lines[i])
		if len(fields) == 0 || fields[0] != a.Name {
			t.Errorf("line %d = %q, want it to lead with analyzer %q", i, lines[i], a.Name)
			continue
		}
		if !strings.Contains(lines[i], a.Doc) {
			t.Errorf("line %d for %q does not carry its doc %q:\n%s", i, a.Name, a.Doc, lines[i])
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "nonsense", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "nonsense") {
		t.Errorf("stderr does not name the bad analyzer: %s", errb.String())
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestFindingsExitOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-analyzers", "maporder", maporderFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("fixture exit = %d, want 1, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"maporder:", "iteration order is randomised", "finding(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-analyzers", "maporder", maporderFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("fixture exit = %d, want 1, stderr: %s", code, errb.String())
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestSARIFOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sarif", "-analyzers", "maporder", maporderFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("fixture exit = %d, want 1, stderr: %s", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not a SARIF log: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	if name := log.Runs[0].Tool.Driver.Name; name != "becauselint" {
		t.Errorf("driver name = %q, want becauselint", name)
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("fixture produced no SARIF results")
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "maporder" {
			t.Errorf("result ruleId = %q, want maporder", r.RuleID)
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result has no usable location: %+v", r)
		}
	}
	ruleIDs := make(map[string]bool)
	for _, rule := range log.Runs[0].Tool.Driver.Rules {
		ruleIDs[rule.ID] = true
	}
	if !ruleIDs["maporder"] || !ruleIDs["lint"] {
		t.Errorf("rule metadata missing maporder or lint: %v", ruleIDs)
	}
}

// TestWriteWireLockRoundTrips regenerates wire.lock at the repo root
// and asserts the committed file was already up to date — the same
// freshness contract CI enforces with `make wire-lock && git diff`.
func TestWriteWireLockRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	lockPath := filepath.Join(root, "wire.lock")
	before, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatalf("reading committed wire.lock: %v", err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	if code := run([]string{"-write-wire-lock"}, &out, &errb); code != 0 {
		t.Fatalf("-write-wire-lock exit = %d, stderr: %s", code, errb.String())
	}
	after, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		if err := os.WriteFile(lockPath, before, 0o644); err != nil {
			t.Errorf("restoring wire.lock: %v", err)
		}
		t.Errorf("committed wire.lock is stale: regenerate it with `make wire-lock`")
	}
}

// TestCleanPackageExitsZero pins exit 0 on a finding-free run: obsnil
// scopes the determinism fixture out, and the fixture's allows name
// determinism, which did not run, so none is reported as stale.
func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-analyzers", "obsnil", determinismFixture}, &out, &errb)
	if code != 0 {
		t.Fatalf("clean run exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}
