package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a one-package module under a temp dir so the
// wire-lock regeneration flow can be driven end-to-end against real
// `go list` output.
func writeTempModule(t *testing.T, dir, wireSrc string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpwire\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wire.go"), []byte(wireSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	resetLoadCache()
}

// resetLoadCache forgets every memoised Load result, for tests that
// rewrite a module's sources between runs.
func resetLoadCache() {
	loadCache.Lock()
	loadCache.m = map[string][]*Package{}
	loadCache.Unlock()
}

const tempWireV1 = `package tmpwire

const SchemaVersion = 1

type Envelope struct {
	Payload string ` + "`json:\"payload\"`" + `
}
`

// TestWriteWireLockLifecycle drives the regeneration contract: initial
// write, additive regen without a bump, refusal of a non-additive regen
// until SchemaVersion is bumped, then success after the bump.
func TestWriteWireLockLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go list in a temp module; run without -short")
	}
	dir := t.TempDir()
	defer resetLoadCache()

	writeTempModule(t, dir, tempWireV1)
	lockPath, err := WriteWireLock(dir)
	if err != nil {
		t.Fatalf("initial WriteWireLock: %v", err)
	}
	initial, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(initial), "schema_version 1") || !strings.Contains(string(initial), "struct tmpwire.Envelope") {
		t.Fatalf("unexpected initial lock:\n%s", initial)
	}

	// Additive: a new field regenerates without a version bump.
	writeTempModule(t, dir, strings.Replace(tempWireV1,
		"}", "\tExtra int `json:\"extra,omitempty\"`\n}", 1))
	if _, err := WriteWireLock(dir); err != nil {
		t.Fatalf("additive regen refused: %v", err)
	}

	// Non-additive: renaming the payload tag without a bump must refuse.
	nonAdditive := strings.Replace(tempWireV1, `json:"payload"`, `json:"payload_v2"`, 1)
	writeTempModule(t, dir, nonAdditive)
	if _, err := WriteWireLock(dir); err == nil {
		t.Fatalf("non-additive regen without a SchemaVersion bump succeeded")
	} else if !strings.Contains(err.Error(), "bump SchemaVersion") {
		t.Fatalf("refusal should demand a SchemaVersion bump, got: %v", err)
	}

	// Bumping the version unlocks the same regeneration.
	writeTempModule(t, dir, strings.Replace(nonAdditive, "SchemaVersion = 1", "SchemaVersion = 2", 1))
	if _, err := WriteWireLock(dir); err != nil {
		t.Fatalf("post-bump regen refused: %v", err)
	}
	bumped, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(bumped), "schema_version 2") || !strings.Contains(string(bumped), "payload_v2") {
		t.Fatalf("unexpected post-bump lock:\n%s", bumped)
	}
}

// TestWireDriftCatchesServeTagEdit is the acceptance scenario: a json
// tag in internal/serve's envelopes differing from the committed lock
// without a SchemaVersion bump must fail lint. The test simulates the
// edit by doctoring a copy of the real wire.lock (equivalent drift,
// inverted) and pointing the production analyzer at it.
func TestWireDriftCatchesServeTagEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	real, err := os.ReadFile(filepath.Join(root, "wire.lock"))
	if err != nil {
		t.Fatalf("reading committed wire.lock: %v", err)
	}
	// scenario.Spec and serve.ScenarioInfo also record a plain `seed`
	// field; the omitempty column pins the replacement to
	// serve.RequestOptions.Seed specifically.
	doctored := strings.Replace(string(real), "\tseed\tSeed\tuint64\tomitempty", "\tseed_v2\tSeed\tuint64\tomitempty", 1)
	if doctored == string(real) {
		t.Fatalf("committed wire.lock no longer records serve.RequestOptions.Seed; update this test")
	}
	lockPath := filepath.Join(t.TempDir(), "wire.lock")
	if err := os.WriteFile(lockPath, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := productionWireConfig()
	cfg.lockPath = lockPath
	a := wireDrift(cfg)
	diags, err := Run(root, []string{"./..."}, Options{
		Analyzers: []*Analyzer{a},
		RelTo:     root,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "serve.RequestOptions") || !strings.Contains(msg, "bump SchemaVersion") {
		t.Errorf("drift finding should name serve.RequestOptions and demand a SchemaVersion bump, got: %s", msg)
	}
	if !strings.Contains(filepath.ToSlash(diags[0].File), "internal/serve/wire.go") {
		t.Errorf("drift finding should anchor at internal/serve/wire.go, got %s", diags[0].File)
	}
}
