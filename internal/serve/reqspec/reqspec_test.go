package reqspec

import (
	"strconv"
	"strings"
	"testing"

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
