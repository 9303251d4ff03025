package label

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"because/internal/bgp"
	"because/internal/collector"
)

// jsonMeasurement is the stable on-disk form of a Measurement, compatible
// with cmd/becausectl's input schema: "path"/"positive" drive the
// inference, the remaining fields preserve provenance.
type jsonMeasurement struct {
	Path     []uint32 `json:"path"`
	Positive bool     `json:"positive"`
	// Provenance.
	VPAS       uint32  `json:"vp_as"`
	Project    string  `json:"project"`
	Prefix     string  `json:"prefix"`
	Site       uint32  `json:"site"`
	PairsTotal int     `json:"pairs_total"`
	PairsRFD   int     `json:"pairs_rfd"`
	RDeltasSec []int64 `json:"rdeltas_sec,omitempty"`
}

// WriteJSON serialises measurements as a JSON array. The "path" field is
// the tomography portion (origin removed), so the file feeds straight into
// cmd/becausectl.
func WriteJSON(w io.Writer, ms []Measurement) error {
	out := make([]jsonMeasurement, 0, len(ms))
	for _, m := range ms {
		jm := jsonMeasurement{
			Positive:   m.RFD,
			VPAS:       uint32(m.VP.AS),
			Project:    m.VP.Project.String(),
			Prefix:     m.Prefix.String(),
			Site:       uint32(m.Site),
			PairsTotal: m.PairsTotal,
			PairsRFD:   m.PairsRFD,
		}
		for _, a := range m.TomographyPath() {
			jm.Path = append(jm.Path, uint32(a))
		}
		for _, d := range m.RDeltas {
			jm.RDeltasSec = append(jm.RDeltasSec, int64(d/time.Second))
		}
		if len(jm.Path) == 0 {
			continue // nothing for the tomography to use
		}
		out = append(out, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses measurements written by WriteJSON. Provenance fields are
// restored as far as the schema carries them; the path is re-extended with
// the site as origin so TomographyPath returns the stored path again.
//
//lint:allow deadcode test oracle: decodes what WriteJSON emits for the round-trip tests
func ReadJSON(r io.Reader) ([]Measurement, error) {
	var in []jsonMeasurement
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("label: parsing measurements: %w", err)
	}
	var out []Measurement
	for k, jm := range in {
		if len(jm.Path) == 0 {
			return nil, fmt.Errorf("label: measurement %d has an empty path", k)
		}
		m := Measurement{
			RFD:        jm.Positive,
			Site:       bgp.ASN(jm.Site),
			PairsTotal: jm.PairsTotal,
			PairsRFD:   jm.PairsRFD,
			VP:         collector.VantagePoint{AS: bgp.ASN(jm.VPAS), Project: projectByName(jm.Project)},
		}
		if jm.Prefix != "" {
			p, err := parsePrefix(jm.Prefix)
			if err != nil {
				return nil, fmt.Errorf("label: measurement %d: %w", k, err)
			}
			m.Prefix = p
		}
		for _, a := range jm.Path {
			m.Path = append(m.Path, bgp.ASN(a))
		}
		m.Path = append(m.Path, m.Site) // origin back at the tail
		for _, s := range jm.RDeltasSec {
			m.RDeltas = append(m.RDeltas, time.Duration(s)*time.Second)
		}
		out = append(out, m)
	}
	return out, nil
}

func projectByName(name string) collector.Project {
	for _, p := range collector.Projects {
		if p.String() == name {
			return p
		}
	}
	return collector.RIS
}

func parsePrefix(s string) (bgp.Prefix, error) {
	var p bgp.Prefix
	if err := p.UnmarshalText([]byte(s)); err != nil {
		return p, err
	}
	return p, nil
}
