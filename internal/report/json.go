package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// WriteFile streams write into path, surfacing the Close error (a full disk
// shows up there). No os.Exit here, so the deferred Close always runs.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// WritePair writes rep as the report pair: <base>.html, rendered by page,
// then <base>.json, rendered by WriteJSON under pkg, where base is path
// without its extension. wrote, when non-nil, is handed each file's path
// once that file is closed; the first error stops the pair.
func WritePair(path, pkg string, rep any, page func(io.Writer) error, wrote func(path string)) error {
	base := strings.TrimSuffix(path, filepath.Ext(path))
	files := []struct {
		path  string
		write func(io.Writer) error
	}{
		{base + ".html", page},
		{base + ".json", func(w io.Writer) error { return WriteJSON(w, pkg, rep) }},
	}
	for _, f := range files {
		if err := WriteFile(f.path, f.write); err != nil {
			return err
		}
		if wrote != nil {
			wrote(f.path)
		}
	}
	return nil
}
