package utility

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The paper's applications "either provide their fitted parameters using
// historical knowledge or they are sampled online" — historical knowledge
// means fitted models persisted between runs. This file gives model sets a
// stable JSON representation so a profiling pass can be done once and its
// results shipped to every server and cluster manager.

// modelSetFile is the on-disk envelope: a format marker plus the models
// keyed by application name.
type modelSetFile struct {
	Format string            `json:"format"`
	Models map[string]*Model `json:"models"`
}

// formatMarker identifies the envelope and its major revision.
const formatMarker = "pocolo-models/v1"

// SaveModels writes a set of fitted models as JSON.
func SaveModels(w io.Writer, models map[string]*Model) error {
	if len(models) == 0 {
		return errors.New("utility: no models to save")
	}
	for name, m := range models {
		if m == nil {
			return fmt.Errorf("utility: nil model for %q", name)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("utility: refusing to save invalid model %q: %w", name, err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelSetFile{Format: formatMarker, Models: models})
}

// LoadModels reads a model set written by SaveModels and validates every
// entry.
func LoadModels(r io.Reader) (map[string]*Model, error) {
	var file modelSetFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("utility: decoding model set: %w", err)
	}
	if file.Format != formatMarker {
		return nil, fmt.Errorf("utility: unknown model set format %q (want %q)", file.Format, formatMarker)
	}
	if len(file.Models) == 0 {
		return nil, errors.New("utility: model set is empty")
	}
	for name, m := range file.Models {
		if m == nil {
			return nil, fmt.Errorf("utility: nil model for %q", name)
		}
		if m.App == "" {
			m.App = name
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("utility: model %q invalid: %w", name, err)
		}
	}
	return file.Models, nil
}
