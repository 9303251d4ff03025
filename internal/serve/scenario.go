package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"because"
	"because/internal/scenario"
)

// ScenarioInfo is one entry of the GET /v1/scenarios listing: the corpus
// document's identity, not its full contents (becausectl renders those
// locally from the same embedded corpus).
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
}

// ScenarioList is the GET /v1/scenarios response envelope.
type ScenarioList struct {
	SchemaVersion int            `json:"schema_version"`
	Scenarios     []ScenarioInfo `json:"scenarios"`
}

// ScenarioInferRequest is the optional POST /v1/scenarios/{name}/infer
// body. A scenario document already pins everything semantic — seed,
// sampler settings, the world — so the body carries only the schema
// handshake; an empty body is equivalent.
type ScenarioInferRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
}

// scenarioRequestKey derives the result-cache key for a named scenario
// run from the document's canonical form, so a corpus update invalidates
// exactly the scenarios it changed. The "scenario" prefix keeps the key
// space disjoint from POST /v1/infer's observation hashes.
func scenarioRequestKey(spec *scenario.Spec) (string, error) {
	canon, err := spec.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, "scenario\x00") //nolint:errcheck // hash writes cannot fail
	h.Write(canon)                    //nolint:errcheck // hash writes cannot fail
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	names := scenario.Names()
	list := ScenarioList{SchemaVersion: because.SchemaVersion, Scenarios: make([]ScenarioInfo, 0, len(names))}
	for _, name := range names {
		spec, err := scenario.ByName(name)
		if err != nil {
			// Unreachable from input: the names come from the embedded
			// corpus, which TestCorpusResolvesAndKeys parses whole.
			jsonError(w, http.StatusInternalServerError, err.Error(), "")
			return
		}
		list.Scenarios = append(list.Scenarios, ScenarioInfo{
			Name:        spec.Name,
			Description: spec.Description,
			Workload:    spec.ResolvedWorkload(),
			Seed:        spec.Seed,
		})
	}
	writeJSON(w, http.StatusOK, list)
}

// handleScenarioInfer runs a named corpus scenario end to end — campaign
// simulation and inference both happen inside the job, bounded by the
// same admission queue as POST /v1/infer — and answers with the scenario
// Outcome in the standard result envelope. Identical re-runs are cache
// hits that skip the campaign entirely. The ?async=1 and ?stream=1 modes
// work exactly as on POST /v1/infer.
func (s *Server) handleScenarioInfer(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining", "")
		return
	}
	spec, err := scenario.ByName(r.PathValue("name"))
	if err != nil {
		if errors.Is(err, scenario.ErrUnknownScenario) {
			jsonError(w, http.StatusNotFound, err.Error(), "")
			return
		}
		// Unreachable from input: any name but a corpus file's is unknown,
		// and every corpus document parses (TestCorpusResolvesAndKeys).
		jsonError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading request body: "+err.Error(), "")
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req ScenarioInferRequest
		if err := dec.Decode(&req); err != nil {
			jsonError(w, http.StatusBadRequest, "malformed request body: "+err.Error(), "")
			return
		}
		if req.SchemaVersion != 0 && req.SchemaVersion != because.SchemaVersion {
			jsonError(w, http.StatusBadRequest,
				fmt.Sprintf("unsupported schema_version %d (this server speaks %d)", req.SchemaVersion, because.SchemaVersion),
				"schema_version")
			return
		}
	}
	key, err := scenarioRequestKey(spec)
	if err != nil {
		// Unreachable from input: spec is a corpus document, and every
		// one has a canonical form (TestCorpusResolvesAndKeys).
		jsonError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	s.dispatch(w, r, key, func(j *job) jobWork {
		return func(ctx context.Context) (any, error) {
			return scenario.Run(ctx, spec)
		}
	})
}
