package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"because"
)

// validDoc returns a minimal valid document for mutation tests.
func validDoc(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "scenarios", "small-world.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseCorpus(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("corpus scenario %s does not parse: %v", name, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		field string
	}{
		{"unknown-field", `{"format_version":1,"name":"x","bogus":1}`, "document"},
		{"trailing-data", string(validDoc(t)) + `{"again":true}`, "document"},
		{"not-json", `nope`, "document"},
		{"bad-version", strings.Replace(string(validDoc(t)), `"format_version": 1`, `"format_version": 99`, 1), "format_version"},
		{"empty-name", strings.Replace(string(validDoc(t)), `"name": "small-world"`, `"name": ""`, 1), "name"},
		{"bad-workload", strings.Replace(string(validDoc(t)), `"seed": 11`, `"workload":"chaos","seed":11`, 1), "workload"},
		{"bad-share", strings.Replace(string(validDoc(t)), `"share": 0.5`, `"share": 1.5`, 1), "rfd.share"},
		{"bad-preset", strings.Replace(string(validDoc(t)), `"presets": ["cisco"`, `"presets": ["ciscoo"`, 1), "expect.presets"},
		{"bad-category-key", strings.Replace(string(validDoc(t)), `"10003": 3`, `"AS1": 3`, 1), "expect.categories"},
		{"bad-category-value", strings.Replace(string(validDoc(t)), `"10004": 5`, `"10004": 6`, 1), "expect.categories"},
		{"bad-campaign", strings.Replace(string(validDoc(t)), `"pairs": 2`, `"pairs": 0`, 1), "campaign"},
		{"bad-duration", strings.Replace(string(validDoc(t)), `"1m0s"`, `"eventually"`, 1), "document"},
		{"bad-model", strings.Replace(string(validDoc(t)), `"seed": 11`, `"model":"rov","seed":11`, 1), "model"},
		{"churn-on-rov", strings.Replace(string(validDoc(t)), `"seed": 11`, `"workload":"rov","model":"churn","churn_rate":2,"seed":11`, 1), "model"},
		{"bad-churn-rate", strings.Replace(string(validDoc(t)), `"seed": 11`, `"model":"churn","churn_rate":1,"seed":11`, 1), "churn_rate"},
		{"churn-rate-without-churn", strings.Replace(string(validDoc(t)), `"seed": 11`, `"churn_rate":0.1,"seed":11`, 1), "churn_rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("parse accepted an invalid document")
			}
			var verr *because.ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error is %T (%v), want *because.ValidationError", err, err)
			}
			if verr.Field != tc.field {
				t.Errorf("error names field %q, want %q (%v)", verr.Field, tc.field, err)
			}
			if !errors.Is(err, because.ErrInvalidOptions) {
				t.Error("validation error must unwrap to because.ErrInvalidOptions")
			}
		})
	}
}

func TestLoadNameMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "renamed.json")
	if err := os.WriteFile(path, validDoc(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !errors.Is(err, because.ErrInvalidOptions) {
		t.Errorf("Load accepted a document whose name does not match the file: %v", err)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "scenarios", "small-world.json")
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "small-world" || spec.Seed != 11 {
		t.Errorf("loaded spec = %q seed %d", spec.Name, spec.Seed)
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	canon2, err := again.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(canon2) {
		t.Error("canonical form is not a fixed point")
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("no-such-scenario")
	if !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("ByName error = %v, want ErrUnknownScenario", err)
	}
}
