package reqspec

import (
	"strconv"
	"strings"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
	"bgpcoll/internal/hw"
)

func init() { coll.Register() }

// legacyParseSize is the cmd/bgpsim implementation as it stood before the
// grammar moved here, kept verbatim so the test pins CLI/server equivalence:
// any divergence between what `bgpsim -size` accepted and what the shared
// parser accepts fails here.
func legacyParseSize(s string) (int, bool) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return n * mult, true
}

func TestParseSizeEquivalence(t *testing.T) {
	cases := []string{
		"1", "17", "512", "1024",
		"1K", "64K", "1k", " 64k ", "128K",
		"1M", "2M", "4m", " 2M",
		"0", "-5",
		"", "x", "1.5M", "KM", "K", "64KB",
	}
	for _, in := range cases {
		want, wantOK := legacyParseSize(in)
		got, err := ParseSize(in)
		if wantOK != (err == nil) {
			t.Errorf("ParseSize(%q): err=%v, legacy ok=%v", in, err, wantOK)
			continue
		}
		if err == nil && got != want {
			t.Errorf("ParseSize(%q) = %d, legacy %d", in, got, want)
		}
	}
}

func TestParseSizeValues(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{"64K", 64 << 10}, {"2M", 2 << 20}, {"17", 17}, {"1k", 1 << 10}, {" 4m ", 4 << 20},
	} {
		got, err := ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// TestParseSizeOverflow checks a suffix multiply past the int range is an
// error rather than a wrapped count: (2^44+1)M would wrap to exactly 1M.
func TestParseSizeOverflow(t *testing.T) {
	for _, in := range []string{"17592186044417M", "8796093022208M", "-8796093022209M", "9007199254740992K", "9223372036854775807K"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want overflow error", in, n)
		}
	}
	if n, err := ParseSize("8796093022207M"); err != nil || n != 8796093022207<<20 {
		t.Errorf("ParseSize(largest M count) = %d, %v", n, err)
	}
}

func TestParseTorus(t *testing.T) {
	dx, dy, dz, err := ParseTorus("8x8x16")
	if err != nil || dx != 8 || dy != 8 || dz != 16 {
		t.Fatalf("ParseTorus(8x8x16) = %d,%d,%d,%v", dx, dy, dz, err)
	}
	if dx, dy, dz, err = ParseTorus("2X2X4"); err != nil || dx != 2 || dy != 2 || dz != 4 {
		t.Fatalf("ParseTorus(2X2X4) = %d,%d,%d,%v (uppercase X must parse)", dx, dy, dz, err)
	}
	for _, bad := range []string{"8x8", "8x8x8x8", "axbxc", ""} {
		if _, _, _, err := ParseTorus(bad); err == nil {
			t.Errorf("ParseTorus(%q) succeeded", bad)
		}
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]hw.Mode{"smp": hw.SMP, "SMP": hw.SMP, "dual": hw.Dual, "Quad": hw.Quad} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("octo"); err == nil {
		t.Error("ParseMode(octo) succeeded")
	}
}

// TestAlgorithmListings pins the listing the CLI's -list flag prints and the
// server validates against: broadcasts come from the live registry, and the
// allreduce pair matches what cmd/bgpsim has always printed.
func TestAlgorithmListings(t *testing.T) {
	bs := BcastAlgorithms()
	if len(bs) == 0 {
		t.Fatal("no broadcast algorithms registered")
	}
	for _, n := range bs {
		if !ValidBcastAlgo(n) {
			t.Errorf("listed bcast algo %q not valid", n)
		}
	}
	if ValidBcastAlgo("tree.nonesuch") {
		t.Error("unknown bcast algo accepted")
	}
	ar := AllreduceAlgorithms()
	if len(ar) != 2 || ar[0] != "allreduce.shaddr" || ar[1] != "allreduce.current" {
		t.Fatalf("allreduce listing = %v, want the CLI's [allreduce.shaddr allreduce.current]", ar)
	}
	if !ValidAllreduceAlgo("allreduce.current") || ValidAllreduceAlgo("allreduce.none") {
		t.Error("allreduce validation wrong")
	}
}

// with returns Defaults() edited by edit: the request a body or command
// line that sets only those fields makes.
func with(edit func(q *Request)) Request {
	q := Defaults()
	edit(&q)
	return q
}

// TestRequestCell is the one table of request checks both doors share: the
// bgpsim command line and a /v1/run body reach Request.Cell with the same
// fields, so a row here pins both. field names the field a refusal's error
// must name (a size that does not parse must also be quoted as given); ""
// means the request is accepted.
func TestRequestCell(t *testing.T) {
	const small = "2x2x2" // 32 ranks in quad mode
	for _, c := range []struct {
		name  string
		q     Request
		field string
	}{
		{"defaults", Defaults(), ""},
		{"default torus.shaddr", with(func(q *Request) { q.Algo = "torus.shaddr" }), ""},
		{"empty algo is automatic", with(func(q *Request) { q.Torus = small }), ""},
		{"empty allreduce algo is automatic", with(func(q *Request) { q.Op, q.Torus = "allreduce", small }), ""},
		{"smallest everything", with(func(q *Request) { q.Size, q.Torus = "1", small }), ""},
		{"iters, root and size at bound", with(func(q *Request) { q.Iters, q.Root, q.Size, q.Torus = MaxIters, 31, "1024M", small }), ""},
		{"size at bound", with(func(q *Request) { q.Algo, q.Size, q.Torus = "torus.shaddr", "1024M", small }), ""},
		{"size past bound", with(func(q *Request) { q.Algo, q.Size, q.Torus = "torus.shaddr", "1025M", small }), "size"},
		{"size 2^62 bytes", with(func(q *Request) { q.Algo, q.Size = "torus.shaddr", "4398046511104M" }), "size"},
		{"size wraps to 1M", with(func(q *Request) { q.Algo, q.Size = "torus.shaddr", "17592186044417M" }), "size"},
		{"size zero", with(func(q *Request) { q.Algo, q.Size = "torus.shaddr", "0" }), "size"},
		{"size negative", with(func(q *Request) { q.Size, q.Torus = "-8", small }), "size"},
		{"size not a number", with(func(q *Request) { q.Size, q.Torus = "1.5M", small }), `size "1.5M"`},
		{"size with an unknown unit", with(func(q *Request) { q.Size, q.Torus = " 64kb", small }), `size " 64kb"`},
		{"ranks at bound", with(func(q *Request) { q.Algo, q.Torus, q.Mode = "torus.shaddr", "64x64x64", "quad" }), ""},
		{"ranks at bound, automatic 8 bytes", with(func(q *Request) { q.Size, q.Torus = "8", "64x64x64" }), ""},
		{"ranks at bound, smp", with(func(q *Request) { q.Algo, q.Torus, q.Mode = "torus.shaddr", "128x128x64", "smp" }), ""},
		{"ranks past bound", with(func(q *Request) { q.Algo, q.Torus = "torus.shaddr", "64x64x65" }), "torus"},
		{"rack-scale flood", with(func(q *Request) { q.Algo, q.Torus = "torus.shaddr", "4096x4096x4096" }), "torus"},
		{"one long dimension", with(func(q *Request) { q.Algo, q.Torus, q.Mode = "torus.shaddr", "1x1x1048577", "smp" }), "torus"},
		{"rank product overflows", with(func(q *Request) { q.Algo, q.Torus, q.Mode = "torus.shaddr", "4294967296x4294967296x4", "smp" }), "torus"},
		{"every dimension 2^40", with(func(q *Request) { q.Size, q.Torus = "8", "1099511627776x1099511627776x1099511627776" }), "torus"},
		{"zero dimension", with(func(q *Request) { q.Size, q.Torus = "8", "0x8x8" }), "torus"},
		{"negative dimension", with(func(q *Request) { q.Size, q.Torus = "8", "-2x2x2" }), "torus"},
		{"two dimensions", with(func(q *Request) { q.Torus = "8x8" }), "torus"},
		{"unknown mode", with(func(q *Request) { q.Torus, q.Mode = small, "octo" }), "mode"},
		{"allreduce at bound", with(func(q *Request) { q.Op, q.Algo, q.Size, q.Torus = "allreduce", "allreduce.shaddr", "1024M", small }), ""},
		{"allreduce past bound", with(func(q *Request) { q.Op, q.Algo, q.Size, q.Torus = "allreduce", "allreduce.shaddr", "1048577K", small }), "size"},
		{"allreduce size not a multiple of 8", with(func(q *Request) { q.Op, q.Size, q.Torus = "allreduce", "100", small }), "size"},
		{"allreduce under one double", with(func(q *Request) { q.Op, q.Size, q.Torus = "allreduce", "4", small }), "size"},
		{"allreduce with a bcast algo", with(func(q *Request) { q.Op, q.Algo, q.Torus = "allreduce", "tree.shaddr", small }), "algo"},
		{"allreduce with a root", with(func(q *Request) { q.Op, q.Root, q.Torus = "allreduce", 3, small }), "root"},
		{"unknown bcast algo", with(func(q *Request) { q.Algo, q.Torus = "nope", small }), "algo"},
		{"unknown allreduce algo", with(func(q *Request) { q.Op, q.Algo, q.Torus = "allreduce", "nope", small }), "algo"},
		{"unknown op", with(func(q *Request) { q.Op, q.Torus = "gather", small }), "op"},
		{"empty op", with(func(q *Request) { q.Op, q.Torus = "", small }), "op"},
		{"iters at bound", with(func(q *Request) { q.Algo, q.Torus, q.Iters = "tree.shaddr", small, MaxIters }), ""},
		{"iters past bound", with(func(q *Request) { q.Algo, q.Torus, q.Iters = "tree.shaddr", small, MaxIters+1 }), "iters"},
		{"iters max int", with(func(q *Request) { q.Algo, q.Torus, q.Iters = "tree.shaddr", small, int(^uint(0)>>1) }), "iters"},
		{"iters zero", with(func(q *Request) { q.Torus, q.Iters = small, 0 }), "iters"},
		{"iters negative", with(func(q *Request) { q.Torus, q.Iters = small, -3 }), "iters"},
		{"root one past the last rank", with(func(q *Request) { q.Torus, q.Root = small, 32 }), "root"},
		{"root far past the last rank", with(func(q *Request) { q.Torus, q.Root = small, 99999 }), "root"},
		{"root negative", with(func(q *Request) { q.Torus, q.Root = small, -1 }), "root"},
	} {
		cell, err := c.q.Cell()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%s: %+v refused: %v", c.name, c.q, err)
		case c.field == "" && err == nil:
			checkCell(t, c.q, cell)
		case err == nil || !strings.Contains(err.Error(), c.field):
			t.Errorf("%s: %+v: error %v, want one naming %s", c.name, c.q, err, c.field)
		}
	}
}

// FuzzRequest drives Request.Cell with arbitrary values in all seven
// fields. It may not panic, and every cell it accepts must lie inside the
// request bounds and say what the request said.
func FuzzRequest(f *testing.F) {
	d := Defaults()
	f.Add(d.Op, d.Algo, d.Size, d.Torus, d.Mode, d.Iters, d.Root)
	f.Add("bcast", "tree.shaddr", "64K", "2x2x2", "quad", 8, 31)
	f.Add("allreduce", "allreduce.current", "512K", "2x2x2", "smp", 4, 0)
	f.Add("allreduce", "", "100", "2x2x2", "quad", 1, 0)
	f.Add("allreduce", "", "8", "2x2x2", "quad", 1, 5)
	f.Add("bcast", "nope", "1M", "0x8x8", "dual", 0, -1)
	f.Add("bcast", "torus.shaddr", "17592186044417M", "4294967296x4294967296x4", "smp", 1025, 99999)
	f.Fuzz(func(t *testing.T, op, algo, size, torus, mode string, iters, root int) {
		q := Request{Op: op, Algo: algo, Size: size, Torus: torus, Mode: mode, Iters: iters, Root: root}
		if cell, err := q.Cell(); err == nil {
			checkCell(t, q, cell)
		}
	})
}

// checkCell fails unless an accepted cell lies inside the request bounds
// and measures what q asked for: no size truncated to whole doubles, no
// root out of range.
func checkCell(t *testing.T, q Request, c bench.Cell) {
	t.Helper()
	if ranks := c.Cfg.Ranks(); ranks < 1 || ranks > MaxRanks {
		t.Errorf("%+v: accepted %d ranks, bound %d", q, ranks, MaxRanks)
	}
	if bytes := c.Bytes(); bytes < 1 || bytes > MaxSize {
		t.Errorf("%+v: accepted %d bytes, bound %d", q, bytes, MaxSize)
	}
	if size, err := ParseSize(q.Size); err != nil || size != c.Bytes() {
		t.Errorf("%+v: measures %d bytes, request says %d (%v)", q, c.Bytes(), size, err)
	}
	if c.Iters < 1 || c.Iters > MaxIters || c.Iters != q.Iters {
		t.Errorf("%+v: accepted %d iters, bound %d", q, c.Iters, MaxIters)
	}
	if c.Root < 0 || c.Root >= c.Cfg.Ranks() || c.Root != q.Root {
		t.Errorf("%+v: accepted root %d of %d ranks", q, c.Root, c.Cfg.Ranks())
	}
	if c.Kind == bench.CellAllreduce && c.Root != 0 {
		t.Errorf("%+v: accepted an allreduce rooted at %d", q, c.Root)
	}
	if c.Algo != q.Algo {
		t.Errorf("%+v: measures algo %q", q, c.Algo)
	}
}
