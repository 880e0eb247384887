package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// Machine-readable output for the driver: a flat JSON array for scripting
// (`bgplint -json`). It lives here rather than in cmd/bgplint so the
// encoding is unit-testable.

// jsonDiagnostic is the -json element shape.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// WriteJSON writes diags as a JSON array. File paths are made relative to
// root (module root) when possible, so output is stable across checkouts.
func WriteJSON(w io.Writer, diags []Diagnostic, root string) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			Analyzer: d.Analyzer,
			Severity: string(d.Severity),
			File:     relPath(root, d.Position.Filename),
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relPath makes path relative to root with forward slashes; on failure the
// input is returned unchanged.
func relPath(root, path string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}
