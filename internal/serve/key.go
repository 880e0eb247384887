// Cache-key canonicalization. A bgpsimd cache key names a measurement by its
// physics — (partition config, collective kind, algorithm, payload,
// iterations, root) — and nothing else: not the figure it belongs to, not the
// execution vehicle (RunMode), not the worker that ran it. The kernel is
// bit-deterministic in exactly those inputs (DESIGN.md §15), so one key has
// one answer forever, and a fig6 cell and a hand-rolled /v1/run request for
// the same measurement share a cache line.
//
// The canonical form follows the golden-digest discipline of
// internal/bench/golden_test.go: stable "path=value" lines in a fixed order,
// hashed with FNV-1a 64. Config fields are walked by reflection in declared
// order, so a future hw.Params field is picked up automatically — adding a
// field changes every key (a new field means the old answers were computed
// under a different, now-ambient assumption), which is precisely the safe
// failure mode for a cache.
package serve

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"

	"bgpcoll/internal/bench"
)

// keyVersion prefixes every canonical form. Bump it when the meaning of a
// measurement changes without any request field changing (e.g. a kernel
// timing-model fix): stale persisted caches then miss instead of lying. v2:
// hw.Config dropped its kernel-partition count along with the parallel
// kernel, so every v1 form carries a config line no request can produce any
// more.
const keyVersion = "bgpsimd/v2"

// CanonicalCell renders the cell's cache-relevant fields as one stable,
// human-auditable string. Equal strings imply bit-identical virtual times.
func CanonicalCell(c bench.Cell) string { return canonHead(c) + canonConfig(c) }

// canonHead renders the version and the cell's own fields: the part of the
// canonical form that precedes the config walk.
func canonHead(c bench.Cell) string {
	var b strings.Builder
	b.Grow(128)
	fmt.Fprintf(&b, "v=%s\n", keyVersion)
	fmt.Fprintf(&b, "kind=%s\n", c.Kind)
	fmt.Fprintf(&b, "algo=%s\n", c.Algo)
	fmt.Fprintf(&b, "arg=%d\n", c.Arg)
	fmt.Fprintf(&b, "iters=%d\n", c.Iters)
	// Only a non-zero root is rendered, so every key minted before cells
	// carried a root still names its root-0 measurement.
	if c.Root != 0 {
		fmt.Fprintf(&b, "root=%d\n", c.Root)
	}
	return b.String()
}

// canonConfig renders the cell's partition config: the reflective walk that
// dominates the cost of a key.
func canonConfig(c bench.Cell) string {
	var b strings.Builder
	b.Grow(1 << 10)
	canonValue(&b, "cfg", reflect.ValueOf(c.Cfg))
	return b.String()
}

// canonValue appends "path=value" lines for v in declared field order.
func canonValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			canonValue(b, path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		// 'g'/-1 is the shortest representation that round-trips, so the
		// canonical form is exact: two configs canonicalize equal iff their
		// float fields are bit-equal.
		fmt.Fprintf(b, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(b, "%s=%s\n", path, v.String())
	default:
		// hw.Config holds only the kinds above today. A future slice or map
		// field must get an explicit ordering rule; refusing loudly beats
		// silently keying on an unstable rendering.
		panic(fmt.Sprintf("serve: cannot canonicalize %s of kind %s", path, v.Kind()))
	}
}

// KeyCell digests the canonical form into the 16-hex-digit content address
// used by the store, the coalescing table, and the persisted cache file.
func KeyCell(c bench.Cell) string { return rederiveKey(CanonicalCell(c)) }

// keyCells is KeyCell over a batch. A figure or sweep lists its cells config
// by config, so the config walk runs once per run of equal configs instead
// of once per cell; the digested bytes, and so the keys, are KeyCell's.
// Configs compare with ==, under which a zero float equals its negative
// while the two render differently; no request can set a parameter to -0,
// since every config starts from the package's default parameter sets.
func keyCells(cells []bench.Cell) []string {
	keys := make([]string, len(cells))
	var cfg string
	for i, c := range cells {
		if i == 0 || c.Cfg != cells[i-1].Cfg {
			cfg = canonConfig(c)
		}
		keys[i] = rederiveKey(canonHead(c) + cfg)
	}
	return keys
}

// rederiveKey digests an already-canonical form; Store.Load uses it to check
// persisted entries against their claimed keys.
func rederiveKey(canon string) string {
	h := fnv.New64a()
	h.Write([]byte(canon))
	return fmt.Sprintf("%016x", h.Sum64())
}
