package main

import (
	"strings"
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/serve/reqspec"
)

func TestCheckArgs(t *testing.T) {
	torus := func(dx, dy, dz int) hw.Config {
		cfg := hw.DefaultConfig()
		cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = dx, dy, dz
		return cfg
	}
	small := torus(2, 2, 2) // 32 ranks in quad mode
	for _, c := range []struct {
		iters, root, size int
		cfg               hw.Config
		flag              string // the flag the error names; "" means accepted
	}{
		{1, 0, 1, small, ""},
		{1024, 31, reqspec.MaxSize, small, ""},
		{1, 0, 8, torus(64, 64, 64), ""},
		{0, 0, 8, small, "-iters"},
		{-3, 0, 8, small, "-iters"},
		{1025, 0, 8, small, "-iters"},
		{1, 32, 8, small, "-root"},
		{1, 99999, 8, small, "-root"},
		{1, -1, 8, small, "-root"},
		{1, 0, 0, small, "-size"},
		{1, 0, -8, small, "-size"},
		{1, 0, reqspec.MaxSize + 1, small, "-size"},
		{1, 0, 8, torus(0, 8, 8), "-torus"},
		{1, 0, 8, torus(-2, 2, 2), "-torus"},
		{1, 0, 8, torus(64, 64, 65), "-torus"},
		{1, 0, 8, torus(1<<40, 1<<40, 1<<40), "-torus"},
	} {
		err := checkArgs(c.iters, c.root, c.size, c.cfg)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("iters %d root %d size %d torus %s: unexpected error %v", c.iters, c.root, c.size, c.cfg.Torus, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("iters %d root %d size %d torus %s: error %v, want one naming %s", c.iters, c.root, c.size, c.cfg.Torus, err, c.flag)
		}
	}
}
