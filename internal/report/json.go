package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSON renders a report artifact as indented, byte-stable JSON (Go
// maps marshal key-sorted). pkg names the report's package in the error.
func WriteJSON(w io.Writer, pkg string, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("%s: encode report: %w", pkg, err)
	}
	return nil
}

// ReadFile loads a report artifact written by WriteJSON, refusing one whose
// schema_version is not version. pkg names the report's package in errors.
func ReadFile[T any](pkg, path string, version int) (T, error) {
	var rep T
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("%s: read report: %w", pkg, err)
	}
	var head struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return rep, fmt.Errorf("%s: parse report %s: %w", pkg, path, err)
	}
	if head.SchemaVersion != version {
		return rep, fmt.Errorf("%s: report %s has schema version %d, this build understands %d",
			pkg, path, head.SchemaVersion, version)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: parse report %s: %w", pkg, path, err)
	}
	return rep, nil
}
