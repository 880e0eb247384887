package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// The JSON encoder carries analyzer, severity, position, and message
// through, with module-relative paths.
func TestOutputEncodings(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "progframe",
			Severity: SevError,
			Position: token.Position{Filename: "/mod/internal/coll/x.go", Line: 12, Column: 3},
			Message:  "parking operation WaitGEThen must be the last action on every path",
		},
		{
			Analyzer: "hotalloc",
			Severity: SevAdvisory,
			Position: token.Position{Filename: "/mod/internal/sim/k.go", Line: 7, Column: 2},
			Message:  "make allocates in //bgplint:hot function push",
		},
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags, "/mod"); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, buf.String())
	}
	if len(arr) != 2 {
		t.Fatalf("got %d JSON findings, want 2", len(arr))
	}
	if arr[0]["file"] != "internal/coll/x.go" || arr[0]["severity"] != "error" {
		t.Errorf("first JSON finding wrong: %v", arr[0])
	}
	if arr[1]["severity"] != "advisory" {
		t.Errorf("advisory severity lost: %v", arr[1])
	}
}
