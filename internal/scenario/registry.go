package scenario

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The checked-in corpus is embedded so every consumer — tests, becausectl
// and becaused's named-scenario endpoints — serves exactly the documents
// under version control. Goldens are deliberately NOT embedded: only the
// test harness compares renders.
//
//go:embed testdata/scenarios/*.json
var corpusFS embed.FS

const corpusDir = "testdata/scenarios"

// Names lists the embedded corpus scenarios, sorted.
func Names() []string {
	entries, err := corpusFS.ReadDir(corpusDir)
	if err != nil {
		// The directory is embedded at compile time; absence is a build
		// defect, not a runtime condition.
		panic(fmt.Sprintf("scenario: embedded corpus missing: %v", err))
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	sort.Strings(names)
	return names
}

// ErrUnknownScenario distinguishes "no such corpus scenario" from invalid
// documents; becaused maps it to 404 where validation failures are 422.
var ErrUnknownScenario = fmt.Errorf("scenario: unknown scenario")

// ByName parses one embedded corpus scenario. Unknown names yield an
// error wrapping ErrUnknownScenario, and so does any name that is not a
// plain file name ("./x", "../scenarios/x"): the path is not cleaned, and
// the embedded file system rejects it.
func ByName(name string) (*Spec, error) {
	data, err := corpusFS.ReadFile(corpusDir + "/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownScenario, name, strings.Join(Names(), ", "))
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("embedded scenario %s: %w", name, err)
	}
	if spec.Name != name {
		return nil, fmt.Errorf("embedded scenario %s: %w", name,
			errf("name", "document name %q must match file name %q", spec.Name, name))
	}
	return spec, nil
}
