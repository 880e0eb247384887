package main

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bgpcoll/internal/coll"
	"bgpcoll/internal/serve/reqspec"
)

func init() { coll.Register() }

// bgpsim runs the command on args and returns its exit status and output.
func bgpsim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCheckArgs checks bgpsim's flags map field for field onto the request
// bgpsimd checks: each row's flags, parsed over reqspec.Defaults(), reach
// Request.Cell, which accepts the bounds themselves and refuses past them
// with an error naming the flag. Nothing is measured, so rows at the rank
// bound cost no world.
func TestCheckArgs(t *testing.T) {
	maxSize := strconv.Itoa(reqspec.MaxSize)
	for _, c := range []struct {
		args []string
		flag string // the flag the error names; "" means accepted
	}{
		{[]string{"-iters", "1", "-root", "0", "-size", "1"}, ""},
		{[]string{"-iters", "1024", "-root", "31", "-size", maxSize}, ""},
		{[]string{"-size", "8", "-torus", "64x64x64"}, ""},
		{[]string{"-iters", "0"}, "iters"},
		{[]string{"-iters", "-3"}, "iters"},
		{[]string{"-iters", "1025"}, "iters"},
		{[]string{"-root", "32"}, "root"},
		{[]string{"-root", "99999"}, "root"},
		{[]string{"-root", "-1"}, "root"},
		{[]string{"-size", "0"}, "size"},
		{[]string{"-size", "-8"}, "size"},
		{[]string{"-size", strconv.Itoa(reqspec.MaxSize + 1)}, "size"},
		{[]string{"-torus", "0x8x8"}, "torus"},
		{[]string{"-torus", "-2x2x2"}, "torus"},
		{[]string{"-torus", "64x64x65"}, "torus"},
		{[]string{"-torus", "1099511627776x1099511627776x1099511627776"}, "torus"},
	} {
		var q reqspec.Request
		// A row's own -torus comes later and wins over the 32-rank default.
		args := append([]string{"-torus", "2x2x2"}, c.args...)
		if err := requestFlags(&q, io.Discard).Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		_, err := q.Cell()
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%v: error %v, want one naming -%s", c.args, err, c.flag)
		}
	}
}

// TestUtilizationWithinRun pins the report's denominator: busy time over
// the run's whole virtual duration, so no resource is ever more than 100%
// busy, however many iterations the run has.
func TestUtilizationWithinRun(t *testing.T) {
	pct := regexp.MustCompile(`(\d+)%`)
	for _, args := range [][]string{
		{"-torus", "4x4x4", "-size", "1M", "-algo", "torus.shaddr", "-iters", "4"},
		{"-torus", "2x2x2", "-size", "64K", "-algo", "tree.shaddr", "-iters", "4"},
	} {
		code, out, errOut := bgpsim(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		ms := pct.FindAllStringSubmatch(out, -1)
		if len(ms) < 5 {
			t.Fatalf("%v: report has %d utilization figures:\n%s", args, len(ms), out)
		}
		for _, m := range ms {
			if v, _ := strconv.Atoi(m[1]); v > 100 {
				t.Errorf("%v: a resource %s%% busy:\n%s", args, m[1], out)
			}
		}
	}
}

// TestBadRequestsExit2 pins that a request bgpsimd would refuse is an input
// error here too: exit 2 with a message naming the flag, and no panic.
func TestBadRequestsExit2(t *testing.T) {
	for _, c := range []struct {
		args  []string
		field string
	}{
		{[]string{"-iters", "0"}, "iters"},
		{[]string{"-iters", "-3"}, "iters"},
		{[]string{"-root", "99999"}, "root"},
		{[]string{"-root", "-1"}, "root"},
		{[]string{"-size", "-8"}, "size"},
		{[]string{"-algo", "nope"}, "algo"},
		{[]string{"-op", "allreduce", "-size", "100"}, "size"},
		{[]string{"-op", "allreduce", "-root", "3"}, "root"},
	} {
		code, out, errOut := bgpsim(append([]string{"-torus", "2x2x2"}, c.args...)...)
		if code != 2 || !strings.Contains(errOut, c.field) || out != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 naming %s", c.args, code, errOut, out, c.field)
		}
	}
	if code, _, errOut := bgpsim("-torus", "0x8x8"); code != 2 || !strings.Contains(errOut, "torus") {
		t.Errorf("-torus 0x8x8: exit %d, stderr %q", code, errOut)
	}
}
