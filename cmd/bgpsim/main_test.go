package main

import (
	"strings"
	"testing"
)

func TestCheckArgs(t *testing.T) {
	const ranks = 32 // 2x2x2 in quad mode
	for _, c := range []struct {
		iters, root int
		flag        string // the flag the error names; "" means accepted
	}{
		{1, 0, ""},
		{1024, 31, ""},
		{0, 0, "-iters"},
		{-3, 0, "-iters"},
		{1025, 0, "-iters"},
		{1, 32, "-root"},
		{1, 99999, "-root"},
		{1, -1, "-root"},
	} {
		err := checkArgs(c.iters, c.root, ranks)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("iters %d root %d: unexpected error %v", c.iters, c.root, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("iters %d root %d: error %v, want one naming %s", c.iters, c.root, err, c.flag)
		}
	}
}
